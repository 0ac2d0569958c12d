(* Bgp.Router: protocol behaviour over a minimal in-memory fabric
   (no Netsim — direct scheduled delivery), so each test controls exactly
   the peerings and policies involved. *)

open Engine

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let asn = Net.Asn.of_int

let fast_config =
  Bgp.Config.no_jitter
    {
      Bgp.Config.default with
      Bgp.Config.mrai = Time.sec 1;
      proc_delay_min = Time.ms 1;
      proc_delay_max = Time.ms 1;
    }

type harness = {
  sim : Sim.t;
  handlers : (int, from:int -> Bgp.Message.t -> unit) Hashtbl.t;
  mutable routers : Bgp.Router.t list;
}

let make_harness () = { sim = Sim.create ~seed:5 (); handlers = Hashtbl.create 8; routers = [] }

let add_router ?(config = fast_config) h n =
  let node_id = n in
  let send ~dst msg =
    match Hashtbl.find_opt h.handlers dst with
    | None -> false
    | Some handler ->
      ignore (Sim.schedule_after h.sim (Time.ms 1) (fun () -> handler ~from:node_id msg));
      true
  in
  let r =
    Bgp.Router.create ~sim:h.sim ~asn:(asn n) ~node_id
      ~router_id:(Net.Ipv4.addr_of_octets 10 0 (n mod 256) 1)
      ~config ~send ()
  in
  Hashtbl.replace h.handlers node_id (fun ~from msg -> Bgp.Router.handle_message r ~from msg);
  h.routers <- r :: h.routers;
  r

let peer_pair ?(rel_ab = Bgp.Policy.Unrestricted) ?(rel_ba = Bgp.Policy.Unrestricted) a b =
  Bgp.Router.add_peer a ~peer_asn:(Bgp.Router.asn b) ~peer_node:(Bgp.Router.node_id b)
    ~policy:rel_ab;
  Bgp.Router.add_peer b ~peer_asn:(Bgp.Router.asn a) ~peer_node:(Bgp.Router.node_id a)
    ~policy:rel_ba

let run h = ignore (Sim.run h.sim)

let run_until h t = ignore (Sim.run ~until:t h.sim)

let path_of route = List.map Net.Asn.to_int (Bgp.Attrs.as_path (Bgp.Route.attrs route))

let test_session_establishment () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  Bgp.Router.start a;
  Bgp.Router.start b;
  run h;
  Alcotest.(check bool) "a sees b" true (Bgp.Router.peer_established a (asn 65002));
  Alcotest.(check bool) "b sees a" true (Bgp.Router.peer_established b (asn 65001))

let test_one_sided_open () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  Bgp.Router.open_session a (asn 65002);
  run h;
  Alcotest.(check bool) "responder established too" true
    (Bgp.Router.peer_established b (asn 65001))

let test_propagation_and_fib_hook () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  let fib_events = ref [] in
  Bgp.Router.subscribe_best_change b (fun prefix best ->
      fib_events := (prefix, Option.map path_of best) :: !fib_events);
  Bgp.Router.start a;
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  (match Bgp.Router.best b (p "100.64.0.0/24") with
  | Some r ->
    Alcotest.(check (list int)) "path" [ 65001 ] (path_of r);
    Alcotest.(check (option int)) "learned from" (Some 65001)
      (Option.map Net.Asn.to_int (Bgp.Route.from_peer r))
  | None -> Alcotest.fail "b must learn the route");
  Alcotest.(check int) "fib hook fired" 1 (List.length !fib_events)

let test_initial_table_sync () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  (* originate BEFORE the session exists *)
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  Bgp.Router.open_session a (asn 65002);
  run h;
  Alcotest.(check bool) "table synced on establish" true
    (Bgp.Router.best b (p "100.64.0.0/24") <> None)

let test_withdraw_propagates () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  Bgp.Router.start a;
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  Bgp.Router.withdraw_origin a (p "100.64.0.0/24");
  run h;
  Alcotest.(check bool) "b dropped the route" true (Bgp.Router.best b (p "100.64.0.0/24") = None);
  Alcotest.(check int) "b loc-rib empty" 0 (Bgp.Router.loc_size b)

let test_transit_path () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 and c = add_router h 65003 in
  (* line topology a - b - c *)
  peer_pair a b;
  peer_pair b c;
  Bgp.Router.start a;
  Bgp.Router.start b;
  Bgp.Router.start c;
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  (match Bgp.Router.best c (p "100.64.0.0/24") with
  | Some r -> Alcotest.(check (list int)) "transit path" [ 65002; 65001 ] (path_of r)
  | None -> Alcotest.fail "c must learn via b");
  (* b must not advertise a's route back to a *)
  Alcotest.(check bool) "no re-advertisement to source" true
    (Bgp.Router.adj_out_find b ~peer:(asn 65001) (p "100.64.0.0/24") = None)

let test_loop_suppression_on_export () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 and c = add_router h 65003 in
  (* triangle *)
  peer_pair a b;
  peer_pair b c;
  peer_pair a c;
  List.iter Bgp.Router.start [ a; b; c ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  (* c's best is the direct path [a]; its alternative through b exists in
     adj-in but c must not export a route with 65002 in its path to b *)
  (match Bgp.Router.adj_out_find c ~peer:(asn 65002) (p "100.64.0.0/24") with
  | Some attrs ->
    Alcotest.(check bool) "no 65002 in exported path" false
      (Bgp.Attrs.path_contains attrs (asn 65002))
  | None -> ());
  (* and everyone's best is loop-free *)
  List.iter
    (fun r ->
      match Bgp.Router.best r (p "100.64.0.0/24") with
      | Some route ->
        Alcotest.(check bool) "own ASN not in best path" false
          (Bgp.Attrs.path_contains (Bgp.Route.attrs route) (Bgp.Router.asn r))
      | None -> if Bgp.Router.asn r <> asn 65001 then Alcotest.fail "router lost the route")
    [ a; b; c ]

let test_valley_free_transit () =
  let h = make_harness () in
  (* b has customer a, peers c and d: a's routes go to peers, but routes
     learned from peer c must not be exported to peer d. *)
  let a = add_router h 65001
  and b = add_router h 65002
  and c = add_router h 65003
  and d = add_router h 65004 in
  peer_pair ~rel_ab:Bgp.Policy.Provider ~rel_ba:Bgp.Policy.Customer a b;
  peer_pair ~rel_ab:Bgp.Policy.Peer ~rel_ba:Bgp.Policy.Peer b c;
  peer_pair ~rel_ab:Bgp.Policy.Peer ~rel_ba:Bgp.Policy.Peer b d;
  List.iter Bgp.Router.start [ a; b; c; d ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  Bgp.Router.originate c (p "100.64.2.0/24");
  run h;
  Alcotest.(check bool) "customer route reaches peer" true
    (Bgp.Router.best c (p "100.64.0.0/24") <> None);
  Alcotest.(check bool) "customer route reaches other peer" true
    (Bgp.Router.best d (p "100.64.0.0/24") <> None);
  Alcotest.(check bool) "peer route reaches customer" true
    (Bgp.Router.best a (p "100.64.2.0/24") <> None);
  Alcotest.(check bool) "peer route NOT re-exported to other peer" true
    (Bgp.Router.best d (p "100.64.2.0/24") = None)

let test_local_pref_beats_path_length () =
  let h = make_harness () in
  (* d learns a prefix from its customer c (long path) and its provider b
     (short path); customer must win. *)
  let a = add_router h 65001
  and b = add_router h 65002
  and c = add_router h 65003
  and d = add_router h 65004 in
  (* a - b - d (b provider of d), a - c (transit) - d (c customer of d) *)
  peer_pair a b;
  peer_pair a c;
  peer_pair ~rel_ab:Bgp.Policy.Customer ~rel_ba:Bgp.Policy.Provider b d;
  (* from b's view d is customer *)
  peer_pair ~rel_ab:Bgp.Policy.Provider ~rel_ba:Bgp.Policy.Customer c d;
  (* from c's view d is provider; from d's view c is customer *)
  List.iter Bgp.Router.start [ a; b; c; d ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  match Bgp.Router.best d (p "100.64.0.0/24") with
  | Some r ->
    Alcotest.(check (option int)) "chose the customer route" (Some 65003)
      (Option.map Net.Asn.to_int (Bgp.Route.from_peer r))
  | None -> Alcotest.fail "d must have the route"

let test_session_down_flushes () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 and c = add_router h 65003 in
  peer_pair a b;
  peer_pair b c;
  List.iter Bgp.Router.start [ a; b; c ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  Alcotest.(check bool) "c had it" true (Bgp.Router.best c (p "100.64.0.0/24") <> None);
  (* kill the a-b session on both sides *)
  Bgp.Router.session_down b (asn 65001);
  Bgp.Router.session_down a (asn 65002);
  run h;
  Alcotest.(check bool) "b flushed" true (Bgp.Router.best b (p "100.64.0.0/24") = None);
  Alcotest.(check bool) "withdrawal propagated to c" true
    (Bgp.Router.best c (p "100.64.0.0/24") = None)

let test_reestablish_resyncs () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  List.iter Bgp.Router.start [ a; b ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  Bgp.Router.session_down a (asn 65002);
  Bgp.Router.session_down b (asn 65001);
  run h;
  Alcotest.(check bool) "gone after down" true (Bgp.Router.best b (p "100.64.0.0/24") = None);
  Bgp.Router.open_session a (asn 65002);
  run h;
  Alcotest.(check bool) "back after re-establish" true
    (Bgp.Router.best b (p "100.64.0.0/24") <> None)

let test_stats_counted () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 in
  peer_pair a b;
  List.iter Bgp.Router.start [ a; b ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  let sa = Bgp.Router.stats a and sb = Bgp.Router.stats b in
  Alcotest.(check bool) "a sent updates" true (sa.Bgp.Router.msgs_out > 0);
  Alcotest.(check bool) "b received updates" true (sb.Bgp.Router.msgs_in > 0);
  Alcotest.(check bool) "b changed best" true (sb.Bgp.Router.best_changes > 0)

(* [bgp_session_state] is registered by the router's collector, not by
   [add_peer]: every snapshot still holds one series per peering, a
   peering added after an earlier snapshot included, with the session's
   state at scrape time. *)
let test_session_state_gauges () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 and c = add_router h 65003 in
  let state () =
    let snap = Metrics.snapshot (Sim.metrics h.sim) ~at:(Sim.now h.sim) in
    List.filter_map
      (function
        | { Metrics.name = "bgp_session_state"; labels; value = Gauge_v v; _ } ->
          Some (List.map snd labels, v)
        | _ -> None)
      snap.samples
  in
  let check msg expected =
    Alcotest.(check (list (pair (list string) (float 0.0)))) msg expected (state ())
  in
  check "no peers, no series" [];
  peer_pair a b;
  check "idle" [ ([ "AS65001"; "AS65002" ], 0.0); ([ "AS65002"; "AS65001" ], 0.0) ];
  peer_pair a c;
  check "peerings added after a scrape"
    [
      ([ "AS65001"; "AS65002" ], 0.0);
      ([ "AS65001"; "AS65003" ], 0.0);
      ([ "AS65002"; "AS65001" ], 0.0);
      ([ "AS65003"; "AS65001" ], 0.0);
    ];
  List.iter Bgp.Router.start [ a; b; c ];
  run h;
  check "all established"
    [
      ([ "AS65001"; "AS65002" ], 2.0);
      ([ "AS65001"; "AS65003" ], 2.0);
      ([ "AS65002"; "AS65001" ], 2.0);
      ([ "AS65003"; "AS65001" ], 2.0);
    ];
  Bgp.Router.session_down a (asn 65003);
  Alcotest.(check bool) "state follows the session" true
    (List.assoc [ "AS65001"; "AS65003" ] (state ()) < 2.0)

(* One best change fanned out to several peers: the plain peers share one
   exported value, and the peer already in the path is skipped, whatever
   the peer order. *)
let test_shared_export_per_peer () =
  let h = make_harness () in
  let r = add_router h 65001 in
  let plain = add_router h 65002
  and plain_after = add_router h 65004
  and in_path = add_router h 65005
  and transit = add_router h 65009 in
  let link ?(policy = Bgp.Policy.Unrestricted) a b =
    Bgp.Router.add_peer a ~peer_asn:(Bgp.Router.asn b) ~peer_node:(Bgp.Router.node_id b) ~policy
  in
  let pair ?policy a b =
    link ?policy a b;
    link b a
  in
  pair r plain;
  pair r plain_after;
  (* r hears in_path's prefix directly from a provider (local-pref 90)
     and via a customer (130), so its best path carries in_path's ASN *)
  link r in_path ~policy:Bgp.Policy.Provider;
  link in_path r;
  link r transit ~policy:Bgp.Policy.Customer;
  link transit r;
  pair transit in_path;
  List.iter Bgp.Router.start [ r; plain; plain_after; in_path; transit ];
  run h;
  let prefix = p "100.64.0.0/24" in
  Bgp.Router.originate in_path prefix;
  run h;
  (match Bgp.Router.best r prefix with
  | Some route -> Alcotest.(check (list int)) "r's best via transit" [ 65009; 65005 ] (path_of route)
  | None -> Alcotest.fail "r must route");
  let received router =
    Option.map path_of (Bgp.Router.adj_in_find router ~peer:(asn 65001) prefix)
  in
  Alcotest.(check (option (list int))) "plain peer: one prepend"
    (Some [ 65001; 65009; 65005 ]) (received plain);
  Alcotest.(check (option (list int))) "the next plain peer: one prepend"
    (Some [ 65001; 65009; 65005 ]) (received plain_after);
  Alcotest.(check bool) "peer already in the path gets nothing" true
    (Bgp.Router.adj_out_find r ~peer:(asn 65005) prefix = None);
  Alcotest.(check bool) "plain peers share one canonical value" true
    (match
       ( Bgp.Router.adj_out_find r ~peer:(asn 65002) prefix,
         Bgp.Router.adj_out_find r ~peer:(asn 65004) prefix )
     with
    | Some a, Some b -> a == b
    | _ -> false)

exception Boom

(* An exception escaping a batch scope (here a best-change subscriber's)
   leaves as itself, the scope still flushes what it enqueued, and the
   router's next UPDATE is processed and flushed normally: the inbox was
   taken before the exception, so that UPDATE schedules its own event.
   The batch the exception cut short leaves nothing behind in the
   scratch: afterwards b itself and c each decide every prefix of their
   next UPDATE, including the ones the cut-short batch had marked. *)
let test_batch_survives_exception () =
  let h = make_harness () in
  let a = add_router h 65001 and b = add_router h 65002 and c = add_router h 65003 in
  peer_pair a b;
  peer_pair b c;
  let p1 = p "100.64.1.0/24" and p2 = p "100.64.2.0/24" and p3 = p "100.64.3.0/24" in
  (* originated before any session is up, so a's table sync carries both
     prefixes in one UPDATE to b *)
  Bgp.Router.originate a p1;
  Bgp.Router.originate a p2;
  let armed = ref true in
  Bgp.Router.subscribe_best_change b (fun prefix _ ->
      if !armed && Net.Ipv4.equal_prefix prefix p2 then begin
        armed := false;
        raise Boom
      end);
  List.iter Bgp.Router.start [ a; b; c ];
  (match run h with
  | () -> Alcotest.fail "the subscriber's exception must propagate"
  | exception Boom -> ());
  run h;
  Alcotest.(check bool) "the change before the exception was flushed to c" true
    (Bgp.Router.best c p1 <> None);
  Bgp.Router.originate a p3;
  run h;
  Alcotest.(check bool) "the next UPDATE is processed" true (Bgp.Router.best b p3 <> None);
  Alcotest.(check bool) "and flushed onward" true (Bgp.Router.best c p3 <> None);
  (* One UPDATE to b re-announcing both prefixes of the cut-short one over
     a longer path: b decides both, and so does c on b's UPDATE. *)
  let runs r = (Bgp.Router.stats r).Bgp.Router.decision_runs in
  let b_runs = runs b and c_runs = runs c in
  let longer =
    Bgp.Attrs.make ~as_path:[ asn 65001; asn 65100 ] ~next_hop:(Net.Ipv4.addr_of_octets 10 0 1 1) ()
  in
  Bgp.Router.handle_message b ~from:65001
    (Bgp.Message.Update { Bgp.Message.announced = [ (p1, longer); (p2, longer) ]; withdrawn = [] });
  run h;
  Alcotest.(check int) "b decides both prefixes of its next UPDATE" 2 (runs b - b_runs);
  Alcotest.(check int) "c decides both prefixes of its next UPDATE" 2 (runs c - c_runs);
  List.iter
    (fun prefix ->
      Alcotest.(check (option (list int)))
        (Fmt.str "c's %a best is the new path" Net.Ipv4.pp_prefix prefix)
        (Some [ 65002; 65001; 65100 ])
        (Option.map path_of (Bgp.Router.best c prefix)))
    [ p1; p2 ]

(* A router on [sim] that records every UPDATE it sends (instant in
   us, destination node, message), its sessions to peers 65000 + n (node
   n) for each [n] in [peers] already established. *)
let recording_router sim ~peers =
  let told = ref [] in
  let send ~dst msg =
    (match msg with
    | Bgp.Message.Update u -> told := (Time.to_us (Sim.now sim), dst, u) :: !told
    | _ -> ());
    true
  in
  let r =
    Bgp.Router.create ~sim ~asn:(asn 65000) ~node_id:0
      ~router_id:(Net.Ipv4.addr_of_octets 10 0 0 1) ~config:fast_config ~send ()
  in
  let nh = Net.Ipv4.addr_of_octets 10 0 1 1 in
  List.iter
    (fun n ->
      Bgp.Router.add_peer r ~peer_asn:(asn (65000 + n)) ~peer_node:n
        ~policy:Bgp.Policy.Unrestricted;
      Bgp.Router.handle_message r ~from:n
        (Bgp.Message.Open { asn = asn (65000 + n); router_id = nh; hold_time = 0 }))
    peers;
  (r, told)

let announce_from n prefix =
  Bgp.Message.Update
    {
      Bgp.Message.announced =
        [
          ( prefix,
            Bgp.Attrs.make ~as_path:[ asn (65000 + n); asn 65100 ]
              ~next_hop:(Net.Ipv4.addr_of_octets 10 0 n 1) () );
        ];
      withdrawn = [];
    }

let withdraw_from prefix = Bgp.Message.Update { Bgp.Message.announced = []; withdrawn = [ prefix ] }

(* The router learns one prefix from three peers (1, 2, 3) and tells two
   others (4, 5).  Long after, the three withdraw it at one instant,
   inside one processing window: the router decides the prefix once,
   and each other peer gets one UPDATE, the withdrawal, with no path
   change first.  (Deciding per UPDATE, the first withdrawal's path
   change leaves at once and the withdrawal waits behind the MRAI timer
   it started.) *)
let test_withdrawals_coalesce () =
  let sim = Sim.create ~seed:5 () in
  let r, told = recording_router sim ~peers:[ 1; 2; 3; 4; 5 ] in
  let pre = p "100.64.0.0/24" in
  let at s msg n =
    ignore (Sim.schedule_at sim (Time.sec s) (fun () -> Bgp.Router.handle_message r ~from:n (msg n)))
  in
  List.iter (at 1 (fun n -> announce_from n pre)) [ 1; 2; 3 ];
  ignore (Sim.run ~until:(Time.sec 10) sim);
  Alcotest.(check bool) "the router routes the prefix" true (Bgp.Router.best r pre <> None);
  let runs () = (Bgp.Router.stats r).Bgp.Router.decision_runs in
  let before = runs () and settled = Time.to_us (Sim.now sim) in
  List.iter (at 10 (fun _ -> withdraw_from pre)) [ 1; 2; 3 ];
  ignore (Sim.run ~until:(Time.sec 20) sim);
  Alcotest.(check bool) "the prefix is gone" true (Bgp.Router.best r pre = None);
  Alcotest.(check int) "one decision for the three withdrawals" 1 (runs () - before);
  List.iter
    (fun n ->
      let got =
        List.filter_map
          (fun (at, dst, (u : Bgp.Message.update)) ->
            if at > settled && dst = n then
              Some (List.length u.Bgp.Message.announced, u.Bgp.Message.withdrawn)
            else None)
          (List.rev !told)
      in
      Alcotest.(check (list (pair int (list string))))
        (Fmt.str "peer %d: one withdrawal, no path change" n)
        [ (0, [ "100.64.0.0/24" ]) ]
        (List.map (fun (a, w) -> (a, List.map Net.Ipv4.prefix_to_string w)) got))
    [ 4; 5 ]

(* A crash voids the UPDATEs waiting in the inbox: none of them is ever
   applied.  After the restart (the sessions re-opened) the first fresh
   UPDATE schedules its own event, and the one arriving with it joins
   its batch: one decision for the two.  A crash that left the voided
   UPDATEs in the inbox would leave the router unable to schedule
   again. *)
let test_crash_voids_inbox () =
  let sim = Sim.create ~seed:5 () in
  let r, _ = recording_router sim ~peers:[ 1; 2 ] in
  let voided = p "100.64.1.0/24" and fresh = p "100.64.2.0/24" in
  let seen = ref [] in
  Bgp.Router.subscribe_best_change r (fun prefix _ -> seen := prefix :: !seen);
  let node = Bgp.Router.node r in
  let at ms f = ignore (Sim.schedule_at sim (Time.ms ms) f) in
  (* processing takes 1 ms: both UPDATEs still wait when the crash hits *)
  at 1000 (fun () -> Bgp.Router.handle_message r ~from:1 (announce_from 1 voided));
  at 1000 (fun () -> Bgp.Router.handle_message r ~from:2 (announce_from 2 voided));
  at 1000 (fun () -> Node.crash node);
  at 2000 (fun () ->
      Node.start node;
      List.iter
        (fun n ->
          Bgp.Router.handle_message r ~from:n
            (Bgp.Message.Open
               { asn = asn (65000 + n); router_id = Net.Ipv4.addr_of_octets 10 0 1 1; hold_time = 0 }))
        [ 1; 2 ]);
  let runs () = (Bgp.Router.stats r).Bgp.Router.decision_runs in
  let restarted = ref 0 in
  at 3000 (fun () ->
      restarted := runs ();
      Bgp.Router.handle_message r ~from:1 (announce_from 1 fresh);
      Bgp.Router.handle_message r ~from:2 (announce_from 2 fresh));
  ignore (Sim.run ~until:(Time.sec 10) sim);
  Alcotest.(check bool) "sessions re-established" true
    (Bgp.Router.peer_established r (asn 65001) && Bgp.Router.peer_established r (asn 65002));
  Alcotest.(check bool) "the voided batch is never applied" true
    (Bgp.Router.best r voided = None
    && (not (List.exists (Net.Ipv4.equal_prefix voided) !seen))
    && Bgp.Router.adj_in_find r ~peer:(asn 65002) voided = None);
  Alcotest.(check bool) "the fresh UPDATEs are processed" true
    (Bgp.Router.best r fresh <> None && Bgp.Router.adj_in_size r = 2);
  Alcotest.(check int) "in one batch" 1 (runs () - !restarted)

(* --- Decision order: the in-place walk vs the list-and-table path ------- *)

let diff_me = 65000

let diff_pool = Array.init 6 (fun i -> p (Fmt.str "100.64.%d.0/24" i))

(* One peer per relationship, each stamping its own local-pref on
   import: a customer, a peer, a provider and an unrestricted neighbor. *)
let diff_peers =
  [|
    (65001, Bgp.Policy.Customer);
    (65002, Bgp.Policy.Peer);
    (65003, Bgp.Policy.Provider);
    (65004, Bgp.Policy.Unrestricted);
  |]

(* Attribute variants: three path lengths, an AS-path loop through us
   and two paths that fail the first-AS check (import rejections), a MED
   and an ORIGIN difference. *)
let diff_attrs peer variant =
  let nh = Net.Ipv4.addr_of_octets 10 1 0 (peer mod 256) in
  let path tail = List.map asn (peer :: tail) in
  match variant with
  | 0 -> Bgp.Attrs.make ~as_path:(path []) ~next_hop:nh ()
  | 1 -> Bgp.Attrs.make ~as_path:(path [ 65100 ]) ~next_hop:nh ()
  | 2 -> Bgp.Attrs.make ~as_path:(path [ 65100; 65101 ]) ~next_hop:nh ()
  | 3 -> Bgp.Attrs.make ~as_path:(path [ diff_me ]) ~next_hop:nh ()
  | 4 -> Bgp.Attrs.make ~as_path:(path []) ~med:10 ~next_hop:nh ()
  | 5 -> Bgp.Attrs.make ~as_path:(path [ 65102 ]) ~origin:Bgp.Attrs.Incomplete ~next_hop:nh ()
  | 6 -> Bgp.Attrs.make ~as_path:(List.map asn [ 65100; peer ]) ~next_hop:nh ()
  | _ -> Bgp.Attrs.make ~as_path:[] ~next_hop:nh ()

type diff_update = { from : int; withdrawn : int list; announced : (int * int) list }

let diff_message u =
  let peer, _ = diff_peers.(u.from) in
  {
    Bgp.Message.withdrawn = List.map (fun i -> diff_pool.(i)) u.withdrawn;
    announced = List.map (fun (i, v) -> (diff_pool.(i), diff_attrs peer v)) u.announced;
  }

let same_note (p1, b1) (p2, b2) =
  Net.Ipv4.equal_prefix p1 p2
  &&
  match (b1, b2) with
  | None, None -> true
  | Some (a : Bgp.Route.t), Some (b : Bgp.Route.t) ->
    (* a route is its interned attrs, its source their path's head *)
    a == b
  | Some _, None | None, Some _ -> false

(* The router and the reference see the same UPDATEs, 2 s apart, on one
   simulator; each UPDATE reaches the reference at the instant the router
   processes it.  Returns whether the (prefix, best) notification
   sequences and the decision counts agree. *)
let diff_agrees updates =
  let sim = Sim.create ~seed:5 () in
  let me = asn diff_me and router_id = Net.Ipv4.addr_of_octets 10 0 0 1 in
  let r =
    Bgp.Router.create ~sim ~asn:me ~node_id:0 ~router_id ~config:fast_config
      ~send:(fun ~dst:_ _ -> true)
      ()
  in
  let oracle = Decision_reference.create ~asn:me in
  let got = ref [] in
  Bgp.Router.subscribe_best_change r (fun prefix best -> got := (prefix, best) :: !got);
  Array.iteri
    (fun k (peer, policy) ->
      Bgp.Router.add_peer r ~peer_asn:(asn peer) ~peer_node:(k + 1) ~policy;
      Bgp.Router.handle_message r ~from:(k + 1)
        (Bgp.Message.Open { asn = asn peer; router_id; hold_time = 0 }))
    diff_peers;
  Bgp.Router.originate r diff_pool.(0);
  Decision_reference.originate oracle ~next_hop:router_id diff_pool.(0);
  List.iteri
    (fun i u ->
      let at = Time.sec (2 * (i + 1)) in
      let peer, policy = diff_peers.(u.from) in
      let msg = diff_message u in
      ignore
        (Sim.schedule_at sim at (fun () ->
             Bgp.Router.handle_message r ~from:(u.from + 1) (Bgp.Message.Update msg);
             ignore
               (Sim.schedule_at sim (Time.add at (Time.ms 1)) (fun () ->
                    Decision_reference.process_update oracle ~peer:(asn peer) ~policy msg)))))
    updates;
  ignore (Sim.run sim);
  let got = List.rev !got and want = Decision_reference.notifications oracle in
  List.length got = List.length want
  && List.for_all2 same_note got want
  && (Bgp.Router.stats r).Bgp.Router.decision_runs = Decision_reference.decision_runs oracle

let arb_diff =
  let open QCheck.Gen in
  let prefix = int_bound (Array.length diff_pool - 1) in
  let update =
    map3
      (fun from withdrawn announced -> { from; withdrawn; announced })
      (int_bound (Array.length diff_peers - 1))
      (list_size (int_bound 4) prefix)
      (list_size (int_bound 4) (pair prefix (int_bound 7)))
  in
  let print updates =
    Fmt.str "%a"
      Fmt.(
        list ~sep:sp (fun ppf u ->
            Fmt.pf ppf "[from %d -%a +%a]" u.from
              (list ~sep:comma int) u.withdrawn
              (list ~sep:comma (pair ~sep:(any "/") int int))
              u.announced))
      updates
  in
  QCheck.make ~print (list_size (int_range 1 25) update)

(* Duplicates inside [withdrawn] and inside [announced], overlap between
   the two and import rejections: the router decides each affected
   prefix once, in first-affected order, and picks what the
   list-and-table path picked. *)
let prop_decisions_match_reference =
  QCheck.Test.make ~name:"decisions = list-and-table reference" ~count:300 arb_diff diff_agrees

(* The Adj-RIB-Out is derived, so a change queued behind the MRAI timer
   is the only record of what the peer will hold.  Router 65001 learns a
   prefix from 65002 and tells 65003: the first route A leaves at once;
   B, then A again, arrive while the timer runs, and the peer is sent A
   a second time at expiry.  A withdrawal arriving during the next
   interval still leaves at the end of its own event. *)
let test_mrai_queued_change () =
  let sim = Sim.create () in
  let config = { fast_config with Bgp.Config.mrai_on_withdrawals = false } in
  let told = ref [] in
  let send ~dst msg =
    (match msg with
    | Bgp.Message.Update u when dst = 3 -> told := (Time.to_us (Sim.now sim), u) :: !told
    | _ -> ());
    true
  in
  let r =
    Bgp.Router.create ~sim ~asn:(asn 65001) ~node_id:1
      ~router_id:(Net.Ipv4.addr_of_octets 10 0 1 1) ~config ~send ()
  in
  let nh = Net.Ipv4.addr_of_octets 10 0 2 1 in
  List.iter
    (fun n ->
      Bgp.Router.add_peer r ~peer_asn:(asn (65000 + n)) ~peer_node:n
        ~policy:Bgp.Policy.Unrestricted;
      Bgp.Router.handle_message r ~from:n
        (Bgp.Message.Open { asn = asn (65000 + n); router_id = nh; hold_time = 0 }))
    [ 2; 3 ];
  let pre = p "100.64.0.0/24" in
  let at ms update =
    ignore
      (Sim.schedule_after sim (Time.ms ms) (fun () ->
           Bgp.Router.handle_message r ~from:2 (Bgp.Message.Update update)))
  in
  let route path =
    {
      Bgp.Message.announced =
        [ (pre, Bgp.Attrs.make ~as_path:(List.map asn path) ~next_hop:nh ()) ];
      withdrawn = [];
    }
  in
  at 0 (route [ 65002 ]);
  at 100 (route [ 65002; 65009 ]);
  at 200 (route [ 65002 ]);
  at 1500 { Bgp.Message.announced = []; withdrawn = [ pre ] };
  ignore (Sim.run ~until:(Time.sec 3) sim);
  let shown (at, (u : Bgp.Message.update)) =
    ( at / 1000,
      List.map
        (fun (_, a) -> List.map Net.Asn.to_int (Bgp.Attrs.as_path a))
        u.Bgp.Message.announced,
      List.length u.Bgp.Message.withdrawn )
  in
  Alcotest.(check (list (triple int (list (list int)) int)))
    "A at once, A again at expiry, the withdrawal at the end of its event"
    [
      (1, [ [ 65001; 65002 ] ], 0);
      (1001, [ [ 65001; 65002 ] ], 0);
      (1501, [], 1);
    ]
    (List.rev_map shown !told);
  Alcotest.(check int) "nothing left queued" 0 (Bgp.Router.queued_count r)

(* RFC 4271 §6.3's first-AS check.  Router 65000 learns a prefix from
   65001 and tells 65003; 2 s later 65001 sends the prefix again over
   [bad_path].  Returns what the router then holds from 65001, its best
   changes (instant in ms, best path) and its UPDATEs to 65003 (instant
   in ms, announced paths, withdrawn count). *)
let first_as_run bad_path =
  let sim = Sim.create ~seed:5 () in
  let told = ref [] and bests = ref [] in
  let now_ms () = Time.to_us (Sim.now sim) / 1000 in
  let send ~dst msg =
    (match msg with
    | Bgp.Message.Update u when dst = 3 ->
      told :=
        ( now_ms (),
          List.map (fun (_, a) -> List.map Net.Asn.to_int (Bgp.Attrs.as_path a)) u.announced,
          List.length u.withdrawn )
        :: !told
    | _ -> ());
    true
  in
  let r =
    Bgp.Router.create ~sim ~asn:(asn 65000) ~node_id:0
      ~router_id:(Net.Ipv4.addr_of_octets 10 0 0 1) ~config:fast_config ~send ()
  in
  Bgp.Router.subscribe_best_change r (fun _ best ->
      bests := (now_ms (), Option.map path_of best) :: !bests);
  let nh = Net.Ipv4.addr_of_octets 10 0 1 1 in
  List.iter
    (fun n ->
      Bgp.Router.add_peer r ~peer_asn:(asn (65000 + n)) ~peer_node:n
        ~policy:Bgp.Policy.Unrestricted;
      Bgp.Router.handle_message r ~from:n
        (Bgp.Message.Open { asn = asn (65000 + n); router_id = nh; hold_time = 0 }))
    [ 1; 3 ];
  let pre = p "100.64.0.0/24" in
  let announce ms path =
    ignore
      (Sim.schedule_after sim (Time.ms ms) (fun () ->
           Bgp.Router.handle_message r ~from:1
             (Bgp.Message.Update
                {
                  Bgp.Message.announced =
                    [ (pre, Bgp.Attrs.make ~as_path:(List.map asn path) ~next_hop:nh ()) ];
                  withdrawn = [];
                })))
  in
  announce 0 [ 65001; 65100 ];
  announce 2000 bad_path;
  ignore (Sim.run ~until:(Time.sec 5) sim);
  ( Option.map path_of (Bgp.Router.adj_in_find r ~peer:(asn 65001) pre),
    List.rev !bests,
    List.rev !told )

(* A path that does not start with the sender's ASN, or is empty, is
   treated as a withdraw (RFC 7606), exactly as an AS-path loop is: the
   router stores nothing from the sender, and its best changes and its
   UPDATEs to the other peer are the loop rejection's. *)
let test_first_as_check () =
  let stored, loop_bests, loop_told = first_as_run [ 65001; 65000 ] in
  Alcotest.(check (option (list int))) "a loop stores nothing" None stored;
  Alcotest.(check (list (pair int (option (list int))))) "a loop withdraws the best"
    [ (1, Some [ 65001; 65100 ]); (2001, None) ] loop_bests;
  Alcotest.(check (list (triple int (list (list int)) int))) "a loop withdraws from 65003"
    [ (1, [ [ 65000; 65001; 65100 ] ], 0); (2001, [], 1) ] loop_told;
  List.iter
    (fun (what, path) ->
      let stored, bests, told = first_as_run path in
      Alcotest.(check (option (list int))) (what ^ ": nothing stored from 65001") None stored;
      Alcotest.(check (list (pair int (option (list int)))))
        (what ^ ": the loop's best changes") loop_bests bests;
      Alcotest.(check (list (triple int (list (list int)) int)))
        (what ^ ": the loop's UPDATEs") loop_told told)
    [ ("another AS first", [ 65002; 65100 ]); ("empty path", []) ]

let suite =
  [
    Alcotest.test_case "session establishment" `Quick test_session_establishment;
    Alcotest.test_case "one-sided open" `Quick test_one_sided_open;
    Alcotest.test_case "propagation + FIB hook" `Quick test_propagation_and_fib_hook;
    Alcotest.test_case "initial table sync" `Quick test_initial_table_sync;
    Alcotest.test_case "withdraw propagates" `Quick test_withdraw_propagates;
    Alcotest.test_case "transit path" `Quick test_transit_path;
    Alcotest.test_case "loop suppression" `Quick test_loop_suppression_on_export;
    Alcotest.test_case "valley-free transit" `Quick test_valley_free_transit;
    Alcotest.test_case "local-pref beats length" `Quick test_local_pref_beats_path_length;
    Alcotest.test_case "session down flushes" `Quick test_session_down_flushes;
    Alcotest.test_case "re-establish resyncs" `Quick test_reestablish_resyncs;
    Alcotest.test_case "stats counted" `Quick test_stats_counted;
    Alcotest.test_case "session-state gauges" `Quick test_session_state_gauges;
    Alcotest.test_case "shared export per peer" `Quick test_shared_export_per_peer;
    Alcotest.test_case "batch survives an exception" `Quick test_batch_survives_exception;
    Alcotest.test_case "withdrawals in one window coalesce" `Quick test_withdrawals_coalesce;
    Alcotest.test_case "crash voids the inbox" `Quick test_crash_voids_inbox;
    Alcotest.test_case "mrai: queued change is the peer's view" `Quick test_mrai_queued_change;
    Alcotest.test_case "first-AS check" `Quick test_first_as_check;
    QCheck_alcotest.to_alcotest prop_decisions_match_reference;
  ]
