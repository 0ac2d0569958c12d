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

let add_router ?damping ?(config = fast_config) h n =
  let node_id = n in
  let send ~dst msg =
    match Hashtbl.find_opt h.handlers dst with
    | None -> false
    | Some handler ->
      ignore (Sim.schedule_after h.sim (Time.ms 1) (fun () -> handler ~from:node_id msg));
      true
  in
  let r =
    Bgp.Router.create ?damping ~sim:h.sim ~asn:(asn n) ~node_id
      ~router_id:(Net.Ipv4.addr_of_octets 10 0 (n mod 256) 1)
      ~config ~send ()
  in
  Hashtbl.replace h.handlers node_id (fun ~from msg -> Bgp.Router.handle_message r ~from msg);
  h.routers <- r :: h.routers;
  r

let peer_pair ?(rel_ab = Bgp.Policy.Unrestricted) ?(rel_ba = Bgp.Policy.Unrestricted) a b =
  Bgp.Router.add_peer a ~peer_asn:(Bgp.Router.asn b) ~peer_node:(Bgp.Router.node_id b)
    ~policy:(Bgp.Policy.make rel_ab);
  Bgp.Router.add_peer b ~peer_asn:(Bgp.Router.asn a) ~peer_node:(Bgp.Router.node_id a)
    ~policy:(Bgp.Policy.make rel_ba)

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

let test_export_prepending () =
  let h = make_harness () in
  (* a reaches d directly (prepended x3) or via b (clean): the prepended
     direct path must lose at d *)
  let a = add_router h 65001 and b = add_router h 65002 and d = add_router h 65004 in
  Bgp.Router.add_peer a ~peer_asn:(Bgp.Router.asn d) ~peer_node:65004
    ~policy:(Bgp.Policy.make ~export_prepend:3 Bgp.Policy.Unrestricted);
  Bgp.Router.add_peer d ~peer_asn:(Bgp.Router.asn a) ~peer_node:65001
    ~policy:(Bgp.Policy.make Bgp.Policy.Unrestricted);
  peer_pair a b;
  peer_pair b d;
  List.iter Bgp.Router.start [ a; b; d ];
  run h;
  Bgp.Router.originate a (p "100.64.0.0/24");
  run h;
  (match Bgp.Router.adj_in_find d ~peer:(asn 65001) (p "100.64.0.0/24") with
  | Some r ->
    Alcotest.(check (list int)) "prepended on the wire" [ 65001; 65001; 65001; 65001 ]
      (path_of r)
  | None -> Alcotest.fail "direct route must arrive");
  match Bgp.Router.best d (p "100.64.0.0/24") with
  | Some r -> Alcotest.(check (list int)) "transit path wins" [ 65002; 65001 ] (path_of r)
  | None -> Alcotest.fail "d must route"

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

(* One best change fanned out to peers with different export needs: the
   shared 1x attrs, a peer's own prepended attrs and the path-loop skip
   must not bleed into one another, whatever the peer order. *)
let test_shared_export_per_peer () =
  let h = make_harness () in
  let r = add_router h 65001 in
  let plain = add_router h 65002
  and prepended = add_router h 65003
  and plain_after = add_router h 65004
  and in_path = add_router h 65005
  and transit = add_router h 65009 in
  let link ?(policy = Bgp.Policy.make Bgp.Policy.Unrestricted) a b =
    Bgp.Router.add_peer a ~peer_asn:(Bgp.Router.asn b) ~peer_node:(Bgp.Router.node_id b) ~policy
  in
  let pair ?policy a b =
    link ?policy a b;
    link b a
  in
  pair r plain;
  link r prepended
    ~policy:(Bgp.Policy.make ~export_prepend:2 Bgp.Policy.Unrestricted);
  link prepended r;
  pair r plain_after;
  (* r hears in_path's prefix directly (local-pref 50) and via transit
     (100), so its best path carries in_path's ASN *)
  link r in_path ~policy:(Bgp.Policy.make ~local_pref:50 Bgp.Policy.Unrestricted);
  link in_path r;
  pair r transit;
  pair transit in_path;
  List.iter Bgp.Router.start [ r; plain; prepended; plain_after; in_path; transit ];
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
  Alcotest.(check (option (list int))) "prepend peer: three prepends"
    (Some [ 65001; 65001; 65001; 65009; 65005 ]) (received prepended);
  Alcotest.(check (option (list int))) "plain peer after the prepend peer: one prepend"
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
   router's next UPDATE is processed and flushed normally. *)
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
  Bgp.Router.subscribe_best_change b (fun prefix _ ->
      if Net.Ipv4.equal_prefix prefix p2 then raise Boom);
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
  Alcotest.(check bool) "and flushed onward" true (Bgp.Router.best c p3 <> None)

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
    Alcotest.test_case "export prepending" `Quick test_export_prepending;
    Alcotest.test_case "stats counted" `Quick test_stats_counted;
    Alcotest.test_case "shared export per peer" `Quick test_shared_export_per_peer;
    Alcotest.test_case "batch survives an exception" `Quick test_batch_survives_exception;
  ]
