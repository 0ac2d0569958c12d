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
  Net.Dataplane.set_fib dp 0 fib01 ~code:Fun.id;
  let fib12 = Net.Fib.create () in
  Net.Fib.insert fib12 (prefix "10.0.2.0/24") 2;
  Net.Dataplane.set_fib dp 1 fib12 ~code:Fun.id;
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
  Net.Dataplane.set_fib dp 0 fib0 ~code:Fun.id;
  let fib1 = Net.Fib.create () in
  Net.Fib.insert fib1 (prefix "10.9.0.0/16") 0;
  Net.Dataplane.set_fib dp 1 fib1 ~code:Fun.id;
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 1 0 true;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 9 1 1) ~ttl:64 in
  Alcotest.check fate "loop" Net.Dataplane.Looped (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "revisits 0" [| 0; 1; 0 |] (Net.Dataplane.last_path dp);
  (* TTL death binds first when it is tighter than the cycle *)
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 9 1 1) ~ttl:1 in
  Alcotest.check fate "ttl death" Net.Dataplane.Ttl_expired (Net.Dataplane.result_fate r)

(* An SDN flow table of (match prefix, output port) rules. *)
let flow_table rules =
  let table = Sdn.Flow_table.create () in
  List.iter
    (fun (p, port) ->
      Sdn.Flow_table.add table (Sdn.Flow.make ~match_prefix:p (Sdn.Flow.Output port)))
    rules;
  table

let test_unit_flow_table () =
  (* an SDN member's flow table goes in through [set_fib] like any FIB:
     the longest rule wins, whatever order the rules were installed in *)
  let dp = Net.Dataplane.create ~asns:[| 300; 301; 302 |] in
  let set_table rules =
    Net.Dataplane.set_fib dp 0 (flow_table rules) ~code:(fun r ->
        Net.Dataplane.index_of dp (Sdn.Flow.out_port r))
  in
  set_table [ (prefix "10.0.2.0/24", 302); (prefix "10.0.0.0/8", 301) ];
  Net.Dataplane.add_local dp 1 (prefix "10.0.0.0/8");
  Net.Dataplane.add_local dp 2 (prefix "10.0.2.0/24");
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 0 2 true;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 9) ~ttl:4 in
  Alcotest.check fate "delivered" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "took the longest rule" [| 0; 2 |] (Net.Dataplane.last_path dp);
  ignore (Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 3 9) ~ttl:4);
  Alcotest.(check (array int)) "the /8 takes the rest" [| 0; 1 |] (Net.Dataplane.last_path dp);
  (* a rule toward a node outside the snapshot codes as drop: black hole *)
  set_table [ (prefix "10.0.0.0/8", 999) ];
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

let test_set_link_after_compile () =
  (* a link change after compile reaches the very next probe, though
     the class table is not rebuilt *)
  let dp = chain () in
  let dst_bits = addr_bits 10 0 2 7 in
  Net.Dataplane.compile dp;
  let probe () = Net.Dataplane.forward dp ~src:0 ~dst_bits ~ttl:64 in
  Alcotest.check fate "delivered" Net.Dataplane.Delivered (Net.Dataplane.result_fate (probe ()));
  Net.Dataplane.set_link dp 1 2 false;
  let r = probe () in
  Alcotest.check fate "cut link" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r);
  Alcotest.(check int) "dies at 1" 1 (Net.Dataplane.result_hops r);
  Net.Dataplane.set_link dp 1 2 true;
  let r = probe () in
  Alcotest.check fate "healed" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check int) "two hops again" 2 (Net.Dataplane.result_hops r)

let test_last_path_cached () =
  (* nodes 0..3: 10.0.2.0/24 goes 0 -> 1 -> 2 (local); 10.9.0.0/16 goes
     0 -> 1 -> 3 -> 1, a loop.  Each checked probe follows one from
     another source, so its class is cached and its row resolved; its
     path must still be the one the per-hop reference walks. *)
  let asns = [| 400; 401; 402; 403 |] in
  let dp = Net.Dataplane.create ~asns and rf = Dataplane_reference.create ~asns in
  let fib es =
    let f = Net.Fib.create () in
    List.iter (fun (p, a) -> Net.Fib.insert f (prefix p) a) es;
    f
  in
  let both_fib i es =
    Net.Dataplane.set_fib dp i (fib es) ~code:Fun.id;
    Dataplane_reference.set_fib rf i (fib es) ~code:Fun.id
  in
  both_fib 0 [ ("10.0.2.0/24", 1); ("10.9.0.0/16", 1) ];
  both_fib 1 [ ("10.0.2.0/24", 2); ("10.9.0.0/16", 3) ];
  both_fib 3 [ ("10.9.0.0/16", 1) ];
  Net.Dataplane.add_local dp 2 (prefix "10.0.2.0/24");
  Dataplane_reference.add_local rf 2 (prefix "10.0.2.0/24");
  List.iter
    (fun (i, j) ->
      Net.Dataplane.set_link dp i j true;
      Dataplane_reference.set_link rf i j true)
    [ (0, 1); (1, 2); (1, 3); (3, 1) ];
  let check name ~dst_bits ~ttl want_fate want_path =
    ignore (Net.Dataplane.forward dp ~src:3 ~dst_bits ~ttl:64);
    let r = Net.Dataplane.forward dp ~src:0 ~dst_bits ~ttl in
    Alcotest.check fate name want_fate (Net.Dataplane.result_fate r);
    Alcotest.(check int) (name ^ ": reference result")
      (Dataplane_reference.forward rf ~src:0 ~dst_bits ~ttl)
      r;
    Alcotest.(check (array int)) (name ^ ": path") want_path (Net.Dataplane.last_path dp);
    Alcotest.(check (array int)) (name ^ ": reference path") (Dataplane_reference.last_path rf)
      (Net.Dataplane.last_path dp)
  in
  check "delivered" ~dst_bits:(addr_bits 10 0 2 7) ~ttl:64 Net.Dataplane.Delivered [| 0; 1; 2 |];
  check "looped" ~dst_bits:(addr_bits 10 9 4 4) ~ttl:64 Net.Dataplane.Looped [| 0; 1; 3; 1 |];
  check "ttl expired" ~dst_bits:(addr_bits 10 0 2 7) ~ttl:1 Net.Dataplane.Ttl_expired [| 0; 1 |]

(* --- Differential: class table vs the per-hop reference walk ------------ *)

(* One step of a random program, applied to both implementations. *)
type op =
  | Local of int * Net.Ipv4.prefix
  | Local_addr of int * int (* address bits *)
  | Set_fib of int * (Net.Ipv4.prefix * int) list
  | Set_flows of int * (Net.Ipv4.prefix * int) list (* an SDN flow table: prefix -> port *)
  | Link of int * int * bool
  | Probe of int * int * int (* src, dst_bits (any int), ttl *)

let pp_op ppf = function
  | Local (i, p) -> Fmt.pf ppf "local %d %a" i Net.Ipv4.pp_prefix p
  | Local_addr (i, a) -> Fmt.pf ppf "local-addr %d %x" i a
  | Set_fib (i, es) ->
    Fmt.pf ppf "fib %d [%a]" i
      Fmt.(list ~sep:(any "; ") (pair ~sep:(any "->") Net.Ipv4.pp_prefix int))
      es
  | Set_flows (i, rs) ->
    Fmt.pf ppf "flows %d [%a]" i
      Fmt.(list ~sep:(any "; ") (pair ~sep:(any "->") Net.Ipv4.pp_prefix int))
      rs
  | Link (i, j, up) -> Fmt.pf ppf "link %d %d %b" i j up
  | Probe (s, d, ttl) -> Fmt.pf ppf "probe %d %x ttl %d" s d ttl

(* Prefixes grow from a few shared base addresses, so they nest and
   overlap (/0 and /32 included); destinations flip low bits of a base
   and may carry bits above 31 or be negative. *)
let gen_program =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* bases = list_repeat 3 (int_bound 0xffff_ffff) in
    let bases = Array.of_list (0 :: bases) in
    let base = map (Array.get bases) (int_bound (Array.length bases - 1)) in
    let node = int_bound (n - 1) in
    let prefix =
      let* b = base in
      let* len =
        frequency
          [ (1, return 0); (2, return 32); (2, oneofl [ 8; 16; 24 ]); (5, int_bound 32) ]
      in
      return (Net.Ipv4.prefix (Net.Ipv4.addr_of_bits b) len)
    in
    let act = int_range (-2) n in
    let entries = list_size (int_bound 6) (pair prefix act) in
    let dst =
      let* b = base in
      let* k = int_bound 32 in
      let* flip = int_bound 0xffff_ffff in
      let low = b lxor (flip land ((1 lsl k) - 1)) in
      let* high =
        frequency
          [ (4, return 0); (1, map (fun h -> h lsl 32) (int_range 1 0xffff)); (1, return min_int) ]
      in
      return (low lor high)
    in
    (* half the TTLs land on hop-count boundaries; half the probes
       repeat one of a few (src, dst) pairs, so a repeat meets its cached
       class and resolved row, with link flips in between *)
    let ttl = frequency [ (1, int_bound (n + 2)); (1, int_bound 70) ] in
    let* pairs = list_repeat 3 (pair node dst) in
    let pairs = Array.of_list pairs in
    let probe_pair = frequency [ (1, pair node dst); (1, map (Array.get pairs) (int_bound 2)) ] in
    let op =
      frequency
        [
          (2, map2 (fun i p -> Local (i, p)) node prefix);
          (1, map2 (fun i d -> Local_addr (i, d land 0xffff_ffff)) node dst);
          (3, map2 (fun i es -> Set_fib (i, es)) node entries);
          (3, map2 (fun i rs -> Set_flows (i, rs)) node entries);
          (3, map3 (fun i j up -> Link (i, j, up)) node node bool);
          (8, map2 (fun (s, d) ttl -> Probe (s, d, ttl)) probe_pair ttl);
        ]
    in
    let* links = list_repeat (n * n) bool in
    let* ops = list_size (int_range 1 40) op in
    return (n, links, ops))

let print_program (n, links, ops) =
  Fmt.str "n=%d links=[%a]@.%a" n
    Fmt.(list ~sep:nop (fun ppf b -> string ppf (if b then "1" else "0")))
    links
    Fmt.(list ~sep:cut pp_op)
    ops

(* Runs [ops] on both implementations, from the directed links [links]
   (row-major); false at the first probe whose packed result or path
   differs. *)
let matches_reference (n, links, ops) =
  let asns = Array.init n (fun i -> 64_500 + i) in
  let dp = Net.Dataplane.create ~asns and rf = Dataplane_reference.create ~asns in
  List.iteri
    (fun k up ->
      Net.Dataplane.set_link dp (k / n) (k mod n) up;
      Dataplane_reference.set_link rf (k / n) (k mod n) up)
    links;
  let fib_of es =
    let fib = Net.Fib.create () in
    List.iter (fun (p, a) -> Net.Fib.insert fib p a) es;
    fib
  in
  List.for_all
    (function
      | Local (i, p) ->
        Net.Dataplane.add_local dp i p;
        Dataplane_reference.add_local rf i p;
        true
      | Local_addr (i, a) ->
        let a = Net.Ipv4.addr_of_bits a in
        Net.Dataplane.add_local_addr dp i a;
        Dataplane_reference.add_local_addr rf i a;
        true
      | Set_fib (i, es) ->
        let fib = fib_of es in
        Net.Dataplane.set_fib dp i fib ~code:Fun.id;
        Dataplane_reference.set_fib rf i fib ~code:Fun.id;
        true
      | Set_flows (i, rs) ->
        (* each rule's port is its action code *)
        let table = flow_table rs in
        Net.Dataplane.set_fib dp i table ~code:Sdn.Flow.out_port;
        Dataplane_reference.set_fib rf i table ~code:Sdn.Flow.out_port;
        true
      | Link (i, j, up) ->
        Net.Dataplane.set_link dp i j up;
        Dataplane_reference.set_link rf i j up;
        true
      | Probe (src, dst_bits, ttl) ->
        let got = Net.Dataplane.forward dp ~src ~dst_bits ~ttl in
        let want = Dataplane_reference.forward rf ~src ~dst_bits ~ttl in
        got = want && Net.Dataplane.last_path dp = Dataplane_reference.last_path rf)
    ops

let prop_matches_reference =
  QCheck.Test.make ~name:"class table = per-hop reference walk" ~count:500
    (QCheck.make ~print:print_program gen_program)
    matches_reference

(* More distinct destinations than the address cache has slots, so
   slots collide and a destination's class is looked up again after its
   slot was taken: 300 random /24 routes and local sets over 5 nodes,
   one address in each and 300 outside them (about 600 distinct
   destinations) probed in three shuffled rounds, with links flipped
   between rounds. *)
let test_reference_many_destinations () =
  let rng = Random.State.make [| 2024 |] in
  let n = 5 in
  let bits () = Random.State.bits rng lor (Random.State.int rng 4 lsl 30) in
  let prefixes =
    Array.init 300 (fun _ -> Net.Ipv4.prefix (Net.Ipv4.addr_of_bits (bits ())) 24)
  in
  let setup =
    List.init n (fun i ->
        Set_fib
          ( i,
            List.filter_map
              (fun p ->
                if Random.State.int rng 3 = 0 then None
                else Some (p, Random.State.int rng (n + 1) - 1))
              (Array.to_list prefixes) ))
    @ List.filter_map
        (fun p ->
          if Random.State.int rng 4 = 0 then Some (Local (Random.State.int rng n, p)) else None)
        (Array.to_list prefixes)
  in
  let dsts =
    List.sort_uniq Int.compare
      (List.map
         (fun p -> Net.Ipv4.addr_to_bits (Net.Ipv4.prefix_network p) + Random.State.int rng 256)
         (Array.to_list prefixes)
      @ List.init 300 (fun _ -> bits ()))
  in
  Alcotest.(check bool) "more destinations than cache slots" true (List.length dsts > 256);
  let round () =
    let probes =
      List.map
        (fun d -> (Random.State.bits rng, Probe (Random.State.int rng n, d, Random.State.int rng 8)))
        dsts
    in
    List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) probes)
  in
  let flips () =
    List.init 4 (fun _ ->
        Link (Random.State.int rng n, Random.State.int rng n, Random.State.bool rng))
  in
  let links = List.init (n * n) (fun _ -> Random.State.int rng 5 > 0) in
  let ops = setup @ round () @ flips () @ round () @ flips () @ round () in
  if not (matches_reference (n, links, ops)) then
    Alcotest.failf "class table disagrees with the reference:@.%s" (print_program (n, links, ops))

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
    Framework.Experiments.(
      run
        {
          (describe ~members:(Last 2) ~config:cfg ~seed:3 (Failover (Topology.Artificial.clique 5)))
          with
          measure = Loss { per_prefix = 2; interval_ms = 100 };
        })
  in
  Alcotest.(check bool) "loss observed" true (r.Framework.Experiments.lost > 0);
  Alcotest.(check bool) "loss cleared" true
    (r.Framework.Experiments.loss_seconds < r.Framework.Experiments.converge_seconds +. 1.0);
  Alcotest.(check int) "verifier clean after recovery" 0
    r.Framework.Experiments.residual_issues

(* The fast-path gate: on the settled 16-clique fail-over world every AS
   delivers to the stub's host address, and a tight loop of 1M forwards
   over that snapshot allocates nothing and clears 10M probes/s (best of
   3 reps; a cached class and a resolved row make a forward about 100M/s
   on a 2-vCPU host). *)
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
  Alcotest.(check bool) (Fmt.str "%.2fM probes/s >= 10M" (best /. 1e6)) true (best >= 1e7)

(* --- Legacy forwarding = the reference FIB ------------------------------- *)

(* A legacy router's forwarding is derived from its Loc-RIB; the FIB the
   network used to keep beside it is [Fib_reference].  Random programs on
   a small hybrid clique originate and withdraw nested prefixes (a
   default route and the plan's covering /10 among them, some at the
   router alone, so a local best is not also locally delivered), fail
   and recover links, and crash and restart legacy routers.  At every
   settle each legacy AS's reference FIB must hold exactly the learned
   bests of its Loc-RIB, be empty while the router is down, and agree
   with [forwarding_at] and with the AS's snapshot row on every probe
   address. *)
type fwd_op =
  | Originate of int * int (* AS position, prefix-pool position (-1: the AS's plan prefix) *)
  | Originate_router of int * int (* at the router only: no local delivery *)
  | Withdraw of int * int
  | Fail of int * int
  | Recover of int * int
  | Crash of int
  | Restart of int
  | Settle

let fwd_pool =
  Array.map prefix
    [| "0.0.0.0/0"; "100.64.0.0/10"; "100.64.0.0/16"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24";
       "10.1.2.128/25" |]

let pp_fwd_op ppf = function
  | Originate (i, p) -> Fmt.pf ppf "originate %d %d" i p
  | Originate_router (i, p) -> Fmt.pf ppf "originate-router %d %d" i p
  | Withdraw (i, p) -> Fmt.pf ppf "withdraw %d %d" i p
  | Fail (i, j) -> Fmt.pf ppf "fail %d %d" i j
  | Recover (i, j) -> Fmt.pf ppf "recover %d %d" i j
  | Crash i -> Fmt.pf ppf "crash %d" i
  | Restart i -> Fmt.pf ppf "restart %d" i
  | Settle -> Fmt.string ppf "settle"

let gen_fwd_program =
  QCheck.Gen.(
    let* n = int_range 3 6 in
    let* sdn = int_bound 2 in
    let node = int_bound (n - 1) in
    let pfx = int_range (-1) (Array.length fwd_pool - 1) in
    let op =
      frequency
        [
          (4, map2 (fun i p -> Originate (i, p)) node pfx);
          (2, map2 (fun i p -> Originate_router (i, p)) node pfx);
          (2, map2 (fun i p -> Withdraw (i, p)) node pfx);
          (2, map2 (fun i j -> Fail (i, j)) node node);
          (2, map2 (fun i j -> Recover (i, j)) node node);
          (1, map (fun i -> Crash i) node);
          (1, map (fun i -> Restart i) node);
          (3, return Settle);
        ]
    in
    let* ops = list_size (int_range 1 25) op in
    return (n, sdn, ops))

let print_fwd_program (n, sdn, ops) =
  Fmt.str "@[<v>clique %d, %d SDN@,%a@]" n sdn Fmt.(list ~sep:cut pp_fwd_op) ops

(* What the reference says an AS does with [addr]: [Local] for its
   router address and its locally delivered prefixes, else the FIB. *)
let reference_forwarding plan fib locals asn addr =
  if
    Net.Ipv4.equal_addr addr (plan.Framework.Addressing.router_addr asn)
    || Net.Ipv4.Prefix_set.exists (Net.Ipv4.mem addr) locals
  then Framework.Network.Local
  else
    match Net.Fib.lookup_value fib addr with
    | Some node -> Framework.Network.Next node
    | None -> Framework.Network.No_route

let pp_forwarding ppf = function
  | Framework.Network.Local -> Fmt.string ppf "local"
  | Framework.Network.Next n -> Fmt.pf ppf "next %d" n
  | Framework.Network.No_route -> Fmt.string ppf "no route"

(* The snapshot's action for [addr] at dense index [i], read by a
   one-hop probe with every link usable: [Local], [Next] with the next
   node's AS number, or [No_route] for a drop. *)
let snapshot_forwarding dp i addr =
  let r = Net.Dataplane.forward dp ~src:i ~dst_bits:(Net.Ipv4.addr_to_bits addr) ~ttl:1 in
  if Net.Dataplane.result_hops r = 1 then
    Framework.Network.Next (Net.Dataplane.asn_at dp (Net.Dataplane.last_path dp).(1))
  else
    match Net.Dataplane.result_fate r with
    | Net.Dataplane.Delivered -> Framework.Network.Local
    | _ -> Framework.Network.No_route

(* Raises (failing the property) at the first disagreement. *)
let check_legacy_forwarding net reference locals probes =
  let plan = Framework.Network.plan net in
  let dp = Framework.Network.dataplane_snapshot net in
  let n = List.length (Framework.Network.asns net) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then Net.Dataplane.set_link dp i j true
    done
  done;
  Net.Asn.Map.iter
    (fun asn router ->
      let fail fmt = QCheck.Test.fail_reportf ("AS %a: " ^^ fmt) Net.Asn.pp asn in
      let fib = Fib_reference.fib reference asn in
      let learned =
        List.filter_map
          (fun (p, r) ->
            match Bgp.Route.source r with
            | Bgp.Route.Ebgp peer -> Some (p, Net.Asn.to_int peer)
            | Bgp.Route.Local -> None)
          (Bgp.Router.loc_entries router)
      in
      if Net.Fib.entries fib <> learned then fail "reference FIB <> learned Loc-RIB bests";
      if (not (Engine.Node.is_up (Bgp.Router.node router))) && Net.Fib.size fib > 0 then
        fail "down router with a non-empty reference FIB";
      let local =
        Option.value (Net.Asn.Map.find_opt asn locals) ~default:Net.Ipv4.Prefix_set.empty
      in
      let i = Net.Dataplane.index_of dp (Net.Asn.to_int asn) in
      List.iter
        (fun addr ->
          let want = reference_forwarding plan fib local asn addr in
          let live = Framework.Network.forwarding_at net asn addr in
          let row = snapshot_forwarding dp i addr in
          if live <> want then
            fail "%a: forwarding_at %a, reference %a" Net.Ipv4.pp_addr addr pp_forwarding live
              pp_forwarding want;
          if row <> want then
            fail "%a: snapshot row %a, reference %a" Net.Ipv4.pp_addr addr pp_forwarding row
              pp_forwarding want)
        probes)
    (Framework.Network.routers net)

let prop_legacy_forwarding =
  QCheck.Test.make ~name:"legacy forwarding = reference FIB" ~count:150
    (QCheck.make ~print:print_fwd_program gen_fwd_program)
    (fun (n, sdn, ops) ->
      let spec =
        Topology.Spec.with_sdn (Topology.Artificial.clique n)
          (List.init sdn (fun k -> asn (n - 1 - k)))
      in
      let net = Framework.Network.create ~config:cfg ~seed:5 spec in
      let reference = Fib_reference.attach net in
      Framework.Network.start net;
      let plan = Framework.Network.plan net in
      let prefix_of i p =
        if p < 0 then plan.Framework.Addressing.origin_prefix (asn i) else fwd_pool.(p)
      in
      (* [None] for an SDN member *)
      let router_up i =
        Option.map
          (fun r -> Engine.Node.is_up (Bgp.Router.node r))
          (Framework.Network.router net (asn i))
      in
      (* the prefixes [Network.originate] marked for local delivery *)
      let locals = ref Net.Asn.Map.empty in
      let update_local i p f =
        let s =
          Option.value (Net.Asn.Map.find_opt (asn i) !locals) ~default:Net.Ipv4.Prefix_set.empty
        in
        locals := Net.Asn.Map.add (asn i) (f (prefix_of i p) s) !locals
      in
      let probes =
        List.concat_map
          (fun p ->
            let lo = Net.Ipv4.addr_to_bits (Net.Ipv4.prefix_network p)
            and size = 1 lsl (32 - Net.Ipv4.prefix_len p) in
            List.map Net.Ipv4.addr_of_bits [ lo; lo + (size / 2); lo + size - 1 ])
          (Array.to_list fwd_pool
          @ List.map plan.Framework.Addressing.origin_prefix (Framework.Network.asns net))
        @ List.map plan.Framework.Addressing.router_addr (Framework.Network.asns net)
      in
      let settle () =
        ignore (Framework.Network.settle net);
        check_legacy_forwarding net reference !locals probes
      in
      List.iter
        (function
          | Originate (i, p) ->
            update_local i p Net.Ipv4.Prefix_set.add;
            Framework.Network.originate net (asn i) (prefix_of i p)
          | Originate_router (i, p) ->
            Option.iter
              (fun r -> Bgp.Router.originate r (prefix_of i p))
              (Framework.Network.router net (asn i))
          | Withdraw (i, p) ->
            update_local i p Net.Ipv4.Prefix_set.remove;
            Framework.Network.withdraw net (asn i) (prefix_of i p)
          | Fail (i, j) -> if i <> j then Framework.Network.fail_link net (asn i) (asn j)
          | Recover (i, j) -> if i <> j then Framework.Network.recover_link net (asn i) (asn j)
          | Crash i -> if router_up i = Some true then Framework.Network.crash_node net (asn i)
          | Restart i -> if router_up i = Some false then Framework.Network.restart_node net (asn i)
          | Settle -> settle ())
        ops;
      settle ();
      true)

(* Work count for snapshot compile: words allocated by one
   [Network.dataplane_snapshot] on the settled fail-over world (every AS
   originating, the stub's primary link failed) at SDN 0, 8 and 14.
   Allocated = minor + major - promoted: on OCaml 5 [Gc.counters] reports
   minor words only as of the last minor collection, so the minor figure
   comes from [Gc.minor_words], and promoted words would otherwise count
   twice.  Copying every FIB into a fresh trie cost 23182 / 19382 / 16532
   words at the three levels; reading the live Loc-RIBs and flow tables
   into the class table costs about 5.2k at each, and the resolved table
   beside it and the destination cache about 1.35k more. *)
let test_snapshot_words () =
  let words f =
    let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
    m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)
  in
  List.iter
    (fun sdn ->
      let spec = Topology.Artificial.failover_backup_chain ~clique_size:16 ~chain_len:2 () in
      let spec =
        Topology.Spec.with_sdn spec (List.init sdn (fun i -> Topology.Artificial.asn (15 - i)))
      in
      let net = Framework.Network.create ~config:Framework.Config.default ~seed:7 spec in
      Framework.Network.start net;
      ignore (Framework.Network.settle net);
      List.iter (originate net) (Framework.Network.asns net);
      Framework.Network.fail_link net (Topology.Artificial.stub_asn spec) (asn 0);
      ignore (Framework.Network.settle net);
      ignore (Framework.Network.dataplane_snapshot net);
      let w = words (fun () -> Framework.Network.dataplane_snapshot net) in
      Alcotest.(check bool) (Fmt.str "SDN %d: %.0f words <= 8000" sdn w) true (w <= 8000.0))
    [ 0; 8; 14 ]

let suite =
  [
    Alcotest.test_case "unit: delivered + local at source" `Quick test_unit_delivered;
    Alcotest.test_case "unit: blackhole (no route, down link)" `Quick test_unit_blackhole;
    Alcotest.test_case "unit: loop vs ttl death" `Quick test_unit_loop_and_ttl;
    Alcotest.test_case "unit: SDN flow table through set_fib" `Quick test_unit_flow_table;
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
    Alcotest.test_case "fast path: delivers, 0 words, >= 10M probes/s" `Quick
      test_fast_path_gate;
    Alcotest.test_case "snapshot compile: words per snapshot" `Quick test_snapshot_words;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_legacy_forwarding;
    Alcotest.test_case "set_link after compile: next probe sees it" `Quick
      test_set_link_after_compile;
    Alcotest.test_case "last_path of a cached probe = walked path" `Quick test_last_path_cached;
    Alcotest.test_case "class table = reference, > 256 destinations" `Quick
      test_reference_many_destinations;
  ]
