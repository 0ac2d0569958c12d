(* Bgp.Rib and a peer's Adj-RIB-Out: the three RIBs' bookkeeping. *)

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let asn = Net.Asn.of_int

let route_of_length ~hops ~peer =
  Bgp.Route.make
    ~attrs:(Bgp.Attrs.make ~as_path:(List.init hops (fun _ -> asn peer)) ~next_hop:nh ())
    ~source:(Bgp.Route.Ebgp (asn peer))

let route ~peer = route_of_length ~hops:1 ~peer

let test_adj_in_implicit_withdraw () =
  let rib = Bgp.Rib.create () in
  let pre = p "100.64.0.0/24" in
  Bgp.Rib.Adj_in.set rib pre (route ~peer:65001);
  Bgp.Rib.Adj_in.set rib pre (route ~peer:65001);
  Alcotest.(check int) "replaced, not duplicated" 1 (Bgp.Rib.Adj_in.size rib);
  Bgp.Rib.Adj_in.set rib pre (route ~peer:65002);
  Alcotest.(check int) "two candidates" 2 (List.length (Bgp.Rib.Adj_in.candidates rib pre))

let test_adj_in_candidates_order () =
  let rib = Bgp.Rib.create () in
  let pre = p "100.64.0.0/24" in
  List.iter
    (fun peer -> Bgp.Rib.Adj_in.set rib pre (route ~peer))
    [ 65005; 65001; 65003 ];
  let peers =
    List.filter_map (fun r -> Bgp.Route.from_peer r) (Bgp.Rib.Adj_in.candidates rib pre)
  in
  Alcotest.(check (list int)) "ascending peer order" [ 65001; 65003; 65005 ]
    (List.map Net.Asn.to_int peers)

let test_adj_in_drop_peer () =
  let rib = Bgp.Rib.create () in
  let p1 = p "100.64.0.0/24" and p2 = p "100.64.1.0/24" in
  Bgp.Rib.Adj_in.set rib p1 (route ~peer:65001);
  Bgp.Rib.Adj_in.set rib p2 (route ~peer:65001);
  Bgp.Rib.Adj_in.set rib p1 (route ~peer:65002);
  let dropped = Bgp.Rib.Adj_in.drop_peer rib ~peer:(asn 65001) in
  Alcotest.(check int) "dropped both" 2 (List.length dropped);
  Alcotest.(check int) "other peer remains" 1 (Bgp.Rib.Adj_in.size rib);
  Alcotest.(check bool) "lookup empty" true
    (Bgp.Rib.Adj_in.find rib ~peer:(asn 65001) p1 = None)

let test_adj_in_remove () =
  let rib = Bgp.Rib.create () in
  let pre = p "100.64.0.0/24" in
  Bgp.Rib.Adj_in.set rib pre (route ~peer:65001);
  Alcotest.(check bool) "remove reports the route" true
    (Bgp.Rib.Adj_in.remove rib ~peer:(asn 65001) pre);
  Alcotest.(check bool) "a second remove finds none" false
    (Bgp.Rib.Adj_in.remove rib ~peer:(asn 65001) pre);
  Alcotest.(check int) "removed" 0 (Bgp.Rib.Adj_in.size rib);
  Alcotest.(check (list string)) "all_prefixes empty" []
    (List.map Net.Ipv4.prefix_to_string (Bgp.Rib.Adj_in.all_prefixes rib))

let from_peer = function
  | Some r -> Option.map Net.Asn.to_int (Bgp.Route.from_peer r)
  | None -> None

(* The Loc-RIB is cell 0 of the prefix's Adj-RIB-In entry: a decision
   installs, replaces and removes it while learned routes come and go. *)
let test_loc () =
  let rib = Bgp.Rib.create () in
  let pre = p "100.64.0.0/24" in
  let decide ?local () = Bgp.Rib.Loc.decide rib pre ~local in
  let changed ?local want_old want_best =
    match decide ?local () with
    | Bgp.Rib.Loc.Changed { old; best } -> (from_peer old, from_peer best) = (want_old, want_best)
    | Bgp.Rib.Loc.Kept -> false
  in
  Alcotest.(check bool) "initially empty" true (Bgp.Rib.Loc.find rib pre = None);
  Alcotest.(check bool) "no candidate, no best" true (decide () = Bgp.Rib.Loc.Kept);
  Bgp.Rib.Adj_in.set rib pre (route_of_length ~hops:2 ~peer:65001);
  Alcotest.(check bool) "a first best" true (changed None (Some 65001));
  Alcotest.(check bool) "deciding again changes nothing" true (decide () = Bgp.Rib.Loc.Kept);
  Bgp.Rib.Adj_in.set rib pre (route_of_length ~hops:2 ~peer:65001);
  Alcotest.(check bool) "the same best again changes nothing" true
    (decide () = Bgp.Rib.Loc.Kept);
  Alcotest.(check int) "size" 1 (Bgp.Rib.Loc.size rib);
  Bgp.Rib.Adj_in.set rib pre (route ~peer:65002);
  Alcotest.(check (option int)) "a learned route alone leaves the best" (Some 65001)
    (from_peer (Bgp.Rib.Loc.find rib pre));
  Alcotest.(check bool) "a shorter path replaces the best" true
    (changed (Some 65001) (Some 65002));
  Alcotest.(check int) "replace keeps size" 1 (Bgp.Rib.Loc.size rib);
  let local = Bgp.Route.make ~attrs:(Bgp.Attrs.make ~next_hop:nh ()) ~source:Bgp.Route.Local in
  Alcotest.(check bool) "the local route wins" true (changed ~local (Some 65002) None);
  Alcotest.(check bool) "the local best is held" true
    (Option.equal ( == ) (Bgp.Rib.Loc.find rib pre) (Some local));
  Alcotest.(check bool) "without it the learned winner returns" true
    (changed None (Some 65002));
  Alcotest.(check bool) "its withdrawal leaves the other peer's" true
    (Bgp.Rib.Adj_in.remove rib ~peer:(asn 65002) pre && changed (Some 65002) (Some 65001));
  Alcotest.(check int) "learned routes" 1 (Bgp.Rib.Adj_in.size rib);
  ignore (Bgp.Rib.Adj_in.remove rib ~peer:(asn 65001) pre);
  Alcotest.(check (list string)) "a best alone is no learned prefix" []
    (List.map Net.Ipv4.prefix_to_string (Bgp.Rib.Adj_in.all_prefixes rib));
  Alcotest.(check (option int)) "the stale best stays until the decision" (Some 65001)
    (from_peer (Bgp.Rib.Loc.find rib pre));
  Alcotest.(check bool) "no candidate removes the best" true (changed (Some 65001) None);
  Alcotest.(check bool) "a second decision finds none" true (decide () = Bgp.Rib.Loc.Kept);
  Alcotest.(check int) "removed" 0 (Bgp.Rib.Loc.size rib);
  Alcotest.(check int) "no entries" 0 (List.length (Bgp.Rib.Loc.entries rib))

(* The RIB's own words per stored route: 1,000 prefixes from 2 peers,
   each route's attrs distinct and held in a list outside the RIB, so the
   reading is the table, the per-prefix arrays and whatever a cell keeps
   between itself and the attrs.  A route is its attrs: 3.61 words a
   route here, where a 3-word [{ attrs; source }] record behind each cell
   read 6.62.  The bound is 3.61 + 15%. *)
let rib_words_per_route_bound = 4.15

let test_footprint_fence () =
  let rib = Bgp.Rib.create () and held = ref [] in
  (* one source value per peer, so a layout that stores it counts it once *)
  let sources = List.map (fun peer -> (peer, Bgp.Route.Ebgp (asn peer))) [ 65001; 65002 ] in
  for i = 0 to 999 do
    let pre = p (Fmt.str "100.%d.%d.0/24" (64 + (i / 256)) (i mod 256)) in
    List.iter
      (fun ((peer, source) : int * Bgp.Route.source) ->
        let attrs = Bgp.Attrs.make ~as_path:[ asn peer ] ~med:i ~next_hop:nh () in
        held := attrs :: !held;
        Bgp.Rib.Adj_in.set rib pre (Bgp.Route.make ~attrs ~source))
      sources
  done;
  let routes = Bgp.Rib.Adj_in.size rib in
  Alcotest.(check int) "stored routes" 2000 routes;
  let words =
    Obj.reachable_words (Obj.repr (rib, !held)) - Obj.reachable_words (Obj.repr !held)
  in
  let per_route = float_of_int words /. float_of_int routes in
  if per_route > rib_words_per_route_bound then
    Alcotest.failf "%.2f RIB words per stored route, over %.2f" per_route
      rib_words_per_route_bound

(* A peer's Adj-RIB-Out is derived: its queued change, else the export
   of the Loc-RIB best; a session reset empties it. *)
let test_adj_out () =
  let sim = Engine.Sim.create () in
  let r =
    Bgp.Router.create ~sim ~asn:(asn 65000) ~node_id:0 ~router_id:nh ~config:Bgp.Config.default
      ~send:(fun ~dst:_ _ -> true)
      ()
  in
  let peer = asn 65001 in
  Bgp.Router.add_peer r ~peer_asn:peer ~peer_node:1 ~policy:Bgp.Policy.Customer;
  Bgp.Router.handle_message r ~from:1
    (Bgp.Message.Open { asn = peer; router_id = nh; hold_time = 0 });
  let p1 = p "100.64.0.0/24" and p2 = p "100.64.1.0/24" in
  (* the first announcement leaves at once and arms the MRAI timer; the
     second waits for it *)
  Bgp.Router.originate r p1;
  Bgp.Router.originate r p2;
  let want = Bgp.Attrs.make ~as_path:[ asn 65000 ] ~next_hop:nh () in
  let holds pre =
    match Bgp.Router.adj_out_find r ~peer pre with Some a -> a == want | None -> false
  in
  Alcotest.(check bool) "recorded" true (holds p1);
  Alcotest.(check bool) "queued change shown" true (holds p2);
  Bgp.Router.session_down r peer;
  Alcotest.(check bool) "empty after drop" true
    (List.for_all (fun pre -> Bgp.Router.adj_out_find r ~peer pre = None) [ p1; p2 ])

let suite =
  [
    Alcotest.test_case "adj-in implicit withdraw" `Quick test_adj_in_implicit_withdraw;
    Alcotest.test_case "adj-in candidate order" `Quick test_adj_in_candidates_order;
    Alcotest.test_case "adj-in drop peer" `Quick test_adj_in_drop_peer;
    Alcotest.test_case "adj-in remove" `Quick test_adj_in_remove;
    Alcotest.test_case "loc-rib" `Quick test_loc;
    Alcotest.test_case "adj-out" `Quick test_adj_out;
    Alcotest.test_case "footprint fence" `Quick test_footprint_fence;
  ]
