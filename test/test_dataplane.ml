(* Net.Dataplane + Framework.Fwd_verify: the allocation-free fast path
   must classify every (src, dst) pair exactly like the live emulation.
   Unit tests drive hand-built snapshots through every fate; the
   differential tests hold [Fwd_verify] (snapshot walks) and
   [Monitor.walk] (live state) to the same answer across legacy, SDN,
   fallback and failure states. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let addr_bits o1 o2 o3 o4 = Net.Ipv4.addr_to_bits (Net.Ipv4.addr_of_octets o1 o2 o3 o4)

let prefix s = Option.get (Net.Ipv4.prefix_of_string s)

let fate = Alcotest.testable Net.Dataplane.pp_fate ( = )

(* A hand-built 3-node chain 0 -> 1 -> 2 with 10.0.2.0/24 local at node 2. *)
let chain () =
  let dp = Net.Dataplane.create ~asns:[| 100; 101; 102 |] in
  let fib01 = Net.Fib.create () in
  Net.Fib.insert fib01 (prefix "10.0.2.0/24") 1;
  Net.Dataplane.set_fib dp 0 fib01;
  let fib12 = Net.Fib.create () in
  Net.Fib.insert fib12 (prefix "10.0.2.0/24") 2;
  Net.Dataplane.set_fib dp 1 fib12;
  Net.Dataplane.add_local dp 2 (prefix "10.0.2.0/24");
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 1 2 true;
  dp

let test_unit_delivered () =
  let dp = chain () in
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:64 in
  Alcotest.check fate "delivered" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check int) "two hops" 2 (Net.Dataplane.result_hops r);
  Alcotest.(check (array int)) "path 0-1-2" [| 0; 1; 2 |] (Net.Dataplane.last_path dp);
  (* local delivery at the source itself: zero hops, TTL never consulted *)
  let r = Net.Dataplane.forward dp ~src:2 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:0 in
  Alcotest.check fate "local at ttl=0" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check int) "zero hops" 0 (Net.Dataplane.result_hops r)

let test_unit_blackhole () =
  let dp = chain () in
  (* no route for this destination *)
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 9 9 9 9) ~ttl:64 in
  Alcotest.check fate "no route" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r);
  (* a down link black-holes even with a matching route *)
  Net.Dataplane.set_link dp 1 2 false;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:64 in
  Alcotest.check fate "down link" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "stops at 1" [| 0; 1 |] (Net.Dataplane.last_path dp)

let test_unit_loop_and_ttl () =
  (* 0 and 1 point at each other: revisit = loop whatever the TTL *)
  let dp = Net.Dataplane.create ~asns:[| 200; 201 |] in
  let fib0 = Net.Fib.create () in
  Net.Fib.insert fib0 (prefix "10.9.0.0/16") 1;
  Net.Dataplane.set_fib dp 0 fib0;
  let fib1 = Net.Fib.create () in
  Net.Fib.insert fib1 (prefix "10.9.0.0/16") 0;
  Net.Dataplane.set_fib dp 1 fib1;
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 1 0 true;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 9 1 1) ~ttl:64 in
  Alcotest.check fate "loop" Net.Dataplane.Looped (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "revisits 0" [| 0; 1; 0 |] (Net.Dataplane.last_path dp);
  (* TTL death binds first when it is tighter than the cycle *)
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 9 1 1) ~ttl:1 in
  Alcotest.check fate "ttl death" Net.Dataplane.Ttl_expired (Net.Dataplane.result_fate r)

let test_unit_rules_first_match () =
  (* SDN rule tables are first-match in table order, not LPM *)
  let dp = Net.Dataplane.create ~asns:[| 300; 301; 302 |] in
  let wide_net = addr_bits 10 0 0 0 and wide_mask = Net.Ipv4.mask_bits 8 in
  let narrow_net = addr_bits 10 0 2 0 and narrow_mask = Net.Ipv4.mask_bits 24 in
  (* the wide rule sits first, so it wins even against the narrow match *)
  Net.Dataplane.set_rules dp 0 ~nets:[| wide_net; narrow_net |]
    ~masks:[| wide_mask; narrow_mask |] ~acts:[| 1; 2 |];
  Net.Dataplane.add_local dp 1 (prefix "10.0.0.0/8");
  Net.Dataplane.add_local dp 2 (prefix "10.0.2.0/24");
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 0 2 true;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 9) ~ttl:4 in
  Alcotest.check fate "delivered" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "took the first rule" [| 0; 1 |] (Net.Dataplane.last_path dp);
  (* a Drop action (code -1) black-holes *)
  Net.Dataplane.set_rules dp 0 ~nets:[| wide_net |] ~masks:[| wide_mask |]
    ~acts:[| Net.Dataplane.drop |];
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 9) ~ttl:4 in
  Alcotest.check fate "drop rule" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r)

let test_decr_ttl_edges () =
  (* a probe's ttl is its link budget: ttl=1 crosses exactly one link,
     and ttl=0 cannot leave a source that does not deliver locally *)
  let dp = chain () in
  let r = Net.Dataplane.forward dp ~src:1 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:1 in
  Alcotest.check fate "one link reaches 2" Net.Dataplane.Delivered
    (Net.Dataplane.result_fate r);
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:1 in
  Alcotest.check fate "two links need ttl 2" Net.Dataplane.Ttl_expired
    (Net.Dataplane.result_fate r);
  let r = Net.Dataplane.forward dp ~src:1 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:0 in
  Alcotest.check fate "ttl 0 dies at the source" Net.Dataplane.Ttl_expired
    (Net.Dataplane.result_fate r)

(* --- Differential: snapshot vs live walker over real networks ----------- *)

let build ?(spec = Topology.Artificial.clique 4) () =
  let net = Framework.Network.create ~config:cfg ~seed:9 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  net

let originate net a =
  let plan = Framework.Network.plan net in
  Framework.Network.originate net a (plan.Framework.Addressing.origin_prefix a);
  ignore (Framework.Network.settle net)

let check_agreement name net =
  let disagreements = Framework.Fwd_verify.differential net in
  if disagreements <> [] then
    Alcotest.failf "%s: %d disagreement(s), first: %a" name
      (List.length disagreements)
      Framework.Fwd_verify.pp_disagreement (List.hd disagreements)

let test_differential_clique () =
  let net = build () in
  originate net (asn 0);
  originate net (asn 2);
  check_agreement "settled clique" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 0; asn 2 ] net in
  Alcotest.(check int) "all pairs delivered" report.Framework.Fwd_verify.pairs
    report.Framework.Fwd_verify.delivered;
  Alcotest.(check (list pass)) "no issues" [] report.Framework.Fwd_verify.issues

let test_differential_blackhole () =
  let net = build ~spec:(Topology.Artificial.line 3) () in
  originate net (asn 0);
  (* the only path dies: everything beyond the cut black-holes *)
  Framework.Network.fail_link net (asn 0) (asn 1);
  check_agreement "cut line, pre-convergence" net;
  ignore (Framework.Network.settle net);
  check_agreement "cut line, post-convergence" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 0 ] net in
  Alcotest.(check int) "both far nodes blackholed" 2
    report.Framework.Fwd_verify.blackholed;
  Alcotest.(check int) "none looped" 0 report.Framework.Fwd_verify.looped

let test_differential_sdn_members () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ asn 3; asn 4 ] in
  let net = build ~spec () in
  originate net (asn 0);
  originate net (asn 1);
  check_agreement "clique with SDN members" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 0; asn 1 ] net in
  Alcotest.(check int) "all delivered through flow tables"
    report.Framework.Fwd_verify.pairs report.Framework.Fwd_verify.delivered

let test_differential_sdn_fallback () =
  (* A member partitioned from the controller degrades onto its legacy
     fallback route; the snapshot must mirror the fallback flow table.
     Liveness timers tick forever, so advance wall-clock windows with
     [run_until] rather than waiting for quiescence. *)
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ asn 3; asn 4 ] in
  let config = Framework.Config.failure_test in
  let net = Framework.Network.create ~config ~seed:9 spec in
  Framework.Network.start net;
  let run_for s =
    Framework.Network.run_until net
      (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec s))
  in
  run_for 10;
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  run_for 10;
  check_agreement "settled hybrid clique" net;
  Framework.Network.fail_ctrl_link net (asn 3);
  run_for 10;
  check_agreement "member in legacy fallback" net;
  Framework.Network.recover_ctrl_link net (asn 3);
  run_for 10;
  check_agreement "member back under the controller" net

let test_differential_withdrawal_and_recovery () =
  let net = build () in
  let plan = Framework.Network.plan net in
  let p = plan.Framework.Addressing.origin_prefix (asn 1) in
  originate net (asn 1);
  Framework.Network.withdraw net (asn 1) p;
  ignore (Framework.Network.settle net);
  check_agreement "after withdrawal" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 1 ] net in
  Alcotest.(check int) "withdrawn prefix unreachable" 3
    report.Framework.Fwd_verify.blackholed

(* --- Traffic generation -------------------------------------------------- *)

let test_trafficgen_deterministic () =
  let net = build () in
  originate net (asn 0);
  originate net (asn 2);
  let burst_of seed =
    let tg =
      Framework.Trafficgen.create ~seed ~dsts:[ asn 0; asn 2 ] net
        (Framework.Trafficgen.Sampled_pairs 64)
    in
    Framework.Trafficgen.burst tg
  in
  let a = burst_of 5 and b = burst_of 5 and c = burst_of 6 in
  Alcotest.(check bool) "same seed, same census" true (a = b);
  Alcotest.(check int) "64 injected" 64 a.Framework.Trafficgen.injected;
  Alcotest.(check int) "all delivered" 64 a.Framework.Trafficgen.delivered;
  Alcotest.(check int) "other seed still clean" 64 c.Framework.Trafficgen.delivered

let test_trafficgen_counters () =
  let net = build ~spec:(Topology.Artificial.line 3) () in
  originate net (asn 0);
  let tg =
    Framework.Trafficgen.create ~dsts:[ asn 0 ] net (Framework.Trafficgen.Per_prefix 3)
  in
  ignore (Framework.Trafficgen.burst tg);
  let m = Engine.Sim.metrics (Framework.Network.sim net) in
  let snap = Engine.Metrics.snapshot m ~at:(Framework.Network.now net) in
  Alcotest.(check (option (float 1e-9))) "probes counted" (Some 3.0)
    (Engine.Metrics.value snap "dataplane_probes_total");
  Alcotest.(check (option (float 1e-9))) "all delivered" (Some 3.0)
    (Engine.Metrics.value snap "dataplane_probes_delivered_total");
  (* no drops yet: the labelled drop series must not exist *)
  Alcotest.(check (option (float 1e-9))) "no drop series" None
    (Engine.Metrics.value snap ~labels:[ ("fate", "blackhole") ]
       "dataplane_probes_dropped_total");
  (* cut the only path: drops appear under their fate label *)
  Framework.Network.fail_link net (asn 0) (asn 1);
  let e = Framework.Trafficgen.burst tg in
  Alcotest.(check int) "all lost" 3 (Framework.Trafficgen.epoch_lost e);
  let snap = Engine.Metrics.snapshot m ~at:(Framework.Network.now net) in
  Alcotest.(check (option (float 1e-9))) "blackholes labelled" (Some 3.0)
    (Engine.Metrics.value snap ~labels:[ ("fate", "blackhole") ]
       "dataplane_probes_dropped_total")

let test_trafficgen_fate_agreement () =
  (* Every probe fate must match the verifier's census on the same
     frozen state: burst totals are just an aggregated verify. *)
  let net = build ~spec:(Topology.Artificial.line 4) () in
  originate net (asn 3);
  Framework.Network.fail_link net (asn 2) (asn 3);
  ignore (Framework.Network.settle net);
  let tg =
    Framework.Trafficgen.create ~dsts:[ asn 3 ] net Framework.Trafficgen.All_pairs
  in
  let e = Framework.Trafficgen.burst tg in
  let r = Framework.Fwd_verify.verify ~dsts:[ asn 3 ] net in
  Alcotest.(check int) "injected = pairs" r.Framework.Fwd_verify.pairs
    e.Framework.Trafficgen.injected;
  Alcotest.(check int) "delivered agree" r.Framework.Fwd_verify.delivered
    e.Framework.Trafficgen.delivered;
  Alcotest.(check int) "blackholes agree" r.Framework.Fwd_verify.blackholed
    e.Framework.Trafficgen.blackholed;
  Alcotest.(check int) "loops agree" r.Framework.Fwd_verify.looped
    e.Framework.Trafficgen.looped

let test_loss_run_recovers () =
  let r =
    Framework.Experiments.loss_run ~per_prefix:2 ~interval_ms:100 ~n:5 ~sdn:2 ~seed:3
      ~config:cfg ()
  in
  Alcotest.(check bool) "loss observed" true (r.Framework.Experiments.lost > 0);
  Alcotest.(check bool) "loss cleared" true
    (r.Framework.Experiments.loss_seconds < r.Framework.Experiments.converge_seconds +. 1.0);
  Alcotest.(check int) "verifier clean after recovery" 0
    r.Framework.Experiments.residual_issues

(* The fast-path gate: on the settled 16-clique fail-over world every AS
   delivers to the stub's host address, and a tight loop of 1M forwards
   over that snapshot allocates nothing and clears 1M probes/s (best of
   3 reps; the walker does ~5M/s on a 2-vCPU host). *)
let test_fast_path_gate () =
  let spec = Topology.Artificial.failover_backup_chain ~clique_size:16 ~chain_len:2 () in
  let exp = Framework.Experiment.create ~config:Framework.Config.default ~seed:73 spec in
  let stub = Topology.Artificial.stub_asn spec in
  let prefix = Framework.Experiment.default_prefix exp stub in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp stub)));
  let network = Framework.Experiment.network exp in
  let dp = Framework.Network.dataplane_snapshot network in
  let plan = Framework.Network.plan network in
  let dst_bits = Net.Ipv4.addr_to_bits (plan.Framework.Addressing.host_addr stub) in
  let srcs =
    Array.of_list
      (List.map (fun a -> Net.Dataplane.index_of dp (Net.Asn.to_int a)) (Topology.Spec.asns spec))
  in
  Array.iter
    (fun si ->
      Alcotest.check fate (Fmt.str "delivers from index %d" si) Net.Dataplane.Delivered
        (Net.Dataplane.result_fate (Net.Dataplane.forward dp ~src:si ~dst_bits ~ttl:64)))
    srcs;
  let probes = 1_000_000 and nsrc = Array.length srcs in
  let rep () =
    let sink = ref 0 in
    let before = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to probes - 1 do
      sink := !sink + Net.Dataplane.forward dp ~src:srcs.(i mod nsrc) ~dst_bits ~ttl:64
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity !sink);
    (float_of_int probes /. wall, words)
  in
  let reps = List.init 3 (fun _ -> rep ()) in
  List.iter
    (fun (_, words) -> Alcotest.(check (float 0.0)) "minor words per 1M forwards" 0.0 words)
    reps;
  let best = List.fold_left (fun acc (rate, _) -> Float.max acc rate) 0.0 reps in
  Alcotest.(check bool) (Fmt.str "%.2fM probes/s >= 1M" (best /. 1e6)) true (best >= 1e6)

let suite =
  [
    Alcotest.test_case "unit: delivered + local at source" `Quick test_unit_delivered;
    Alcotest.test_case "unit: blackhole (no route, down link)" `Quick test_unit_blackhole;
    Alcotest.test_case "unit: loop vs ttl death" `Quick test_unit_loop_and_ttl;
    Alcotest.test_case "unit: rule tables are first-match" `Quick test_unit_rules_first_match;
    Alcotest.test_case "packet decr_ttl edges" `Quick test_decr_ttl_edges;
    Alcotest.test_case "differential: settled clique" `Quick test_differential_clique;
    Alcotest.test_case "differential: blackholes on a cut line" `Quick
      test_differential_blackhole;
    Alcotest.test_case "differential: SDN members" `Quick test_differential_sdn_members;
    Alcotest.test_case "differential: SDN legacy fallback" `Quick
      test_differential_sdn_fallback;
    Alcotest.test_case "differential: withdrawal" `Quick
      test_differential_withdrawal_and_recovery;
    Alcotest.test_case "trafficgen: seeded determinism" `Quick test_trafficgen_deterministic;
    Alcotest.test_case "trafficgen: labelled drop counters" `Quick test_trafficgen_counters;
    Alcotest.test_case "trafficgen: fate census = verifier census" `Quick
      test_trafficgen_fate_agreement;
    Alcotest.test_case "loss_run: loss clears by convergence" `Quick test_loss_run_recovers;
    Alcotest.test_case "fast path: delivers, 0 words, >= 1M probes/s" `Quick
      test_fast_path_gate;
  ]
