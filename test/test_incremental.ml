(* Differential tests for the hot-path overhaul: every fast path — the
   arena-reused As_graph pipeline, the controller's fingerprint-based
   recompute skipping, and the straight-line decision comparator — must
   be observationally identical to its from-scratch reference. *)

open Cluster_ctl

let asn = Net.Asn.of_int

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

(* --- As_graph decision equality ----------------------------------------- *)

let hop_equal (a : As_graph.hop) (b : As_graph.hop) =
  match (a, b) with
  | As_graph.Deliver_local, As_graph.Deliver_local -> true
  | As_graph.Exit { neighbor = x }, As_graph.Exit { neighbor = y } -> Net.Asn.equal x y
  | As_graph.Intra { next_member = x }, As_graph.Intra { next_member = y } ->
    Net.Asn.equal x y
  | ( As_graph.Bridge { via_neighbor = n1; to_member = m1 },
      As_graph.Bridge { via_neighbor = n2; to_member = m2 } ) ->
    Net.Asn.equal n1 n2 && Net.Asn.equal m1 m2
  | _ -> false

let decision_equal (a : As_graph.decision) (b : As_graph.decision) =
  Net.Asn.equal a.As_graph.member b.As_graph.member
  && hop_equal a.As_graph.hop b.As_graph.hop
  && List.compare_lengths a.As_graph.as_path b.As_graph.as_path = 0
  && List.for_all2 Net.Asn.equal a.As_graph.as_path b.As_graph.as_path
  && Float.equal a.As_graph.distance b.As_graph.distance
  && a.As_graph.provenance = b.As_graph.provenance

let maps_equal = Net.Asn.Map.equal decision_equal

let check_maps msg expected actual =
  Alcotest.(check bool) msg true (maps_equal expected actual)

(* --- Arena-reused compute ≡ fresh compute ------------------------------- *)

(* Random sub-cluster instances: member graphs with random connectivity,
   exit routes with random paths (sometimes re-entering the cluster, to
   exercise the bridge/loop-avoidance logic), random relationships and
   originators. *)
let random_instance st =
  let nmembers = 1 + Random.State.int st 5 in
  let member_ids = List.init nmembers (fun i -> 10 + i) in
  let members = Net.Asn.Set.of_list (List.map asn member_ids) in
  let g = Net.Graph.create () in
  List.iter (Net.Graph.add_node g) member_ids;
  List.iter
    (fun u ->
      List.iter
        (fun v -> if u < v && Random.State.int st 3 > 0 then Net.Graph.add_edge g u v)
        member_ids)
    member_ids;
  let rels =
    [| Bgp.Policy.Customer; Bgp.Policy.Provider; Bgp.Policy.Peer; Bgp.Policy.Unrestricted |]
  in
  let routes =
    List.init
      (Random.State.int st 9)
      (fun _ ->
        let member = asn (10 + Random.State.int st nmembers) in
        let neighbor = asn (1 + Random.State.int st 5) in
        let hops = 1 + Random.State.int st 3 in
        let path = List.init hops (fun _ -> asn (1 + Random.State.int st 8)) in
        (* occasionally route back through a member: re-entry paths *)
        let path =
          if Random.State.int st 4 = 0 then
            path @ [ asn (10 + Random.State.int st nmembers); asn (1 + Random.State.int st 8) ]
          else path
        in
        let attrs =
          Bgp.Attrs.make ~as_path:path
            ~local_pref:(90 + (10 * Random.State.int st 3))
            ~next_hop:nh ()
        in
        { As_graph.member; neighbor; attrs; rel = rels.(Random.State.int st 4) })
  in
  let originators =
    Net.Asn.Set.of_list
      (List.filter_map
         (fun m -> if Random.State.int st 8 = 0 then Some (asn m) else None)
         member_ids)
  in
  (members, g, routes, originators)

let test_arena_matches_fresh () =
  let st = Random.State.make [| 421 |] in
  (* one arena across every instance: stale state from a previous graph,
     route set or member set must never leak into the next result *)
  let arena = As_graph.create_arena () in
  for _ = 1 to 80 do
    let members, g, routes, originators = random_instance st in
    let fresh () = As_graph.compute ~members ~switch_graph:g ~routes ~originators () in
    let reused () =
      As_graph.compute ~arena ~members ~switch_graph:g ~routes ~originators ()
    in
    check_maps "arena = fresh" (fresh ()) (reused ());
    (* same graph again: the sub-cluster cache-hit path *)
    check_maps "arena cache hit = fresh" (fresh ()) (reused ());
    (* mutate the graph (version bump) and compare both ways again *)
    (match Net.Asn.Set.elements members with
    | a :: b :: _ ->
      let u = Net.Asn.to_int a and v = Net.Asn.to_int b in
      if Net.Graph.mem_edge g u v then Net.Graph.remove_edge g u v
      else Net.Graph.add_edge g u v;
      check_maps "arena after graph edit = fresh" (fresh ()) (reused ())
    | _ -> ())
  done

(* --- Controller incremental state ≡ from-scratch compute ----------------- *)

let art = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

(* 4-AS clique: 0,1 legacy; 2,3 centralized.  Origin prefixes from a
   legacy AS (no originators) and from a member (originator set). *)
let build_net () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 4) [ art 2; art 3 ] in
  let net = Framework.Network.create ~config:cfg ~seed:91 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let plan = Framework.Network.plan net in
  let legacy_prefix = plan.Framework.Addressing.origin_prefix (art 0) in
  let member_prefix = plan.Framework.Addressing.origin_prefix (art 3) in
  Framework.Network.originate net (art 0) legacy_prefix;
  Framework.Network.originate net (art 3) member_prefix;
  ignore (Framework.Network.settle net);
  (net, legacy_prefix, member_prefix)

let scratch_compute ctrl ~originators prefix =
  As_graph.compute
    ~members:(Net.Asn.Set.of_list (Controller.members ctrl))
    ~switch_graph:(Controller.switch_graph ctrl)
    ~routes:(Controller.rib_routes ctrl prefix)
    ~originators ()

let check_controller_matches ctrl ~legacy_prefix ~member_prefix msg =
  check_maps
    (msg ^ ": legacy prefix")
    (scratch_compute ctrl ~originators:Net.Asn.Set.empty legacy_prefix)
    (Controller.decisions_for ctrl legacy_prefix);
  check_maps
    (msg ^ ": member prefix")
    (scratch_compute ctrl ~originators:(Net.Asn.Set.singleton (art 3)) member_prefix)
    (Controller.decisions_for ctrl member_prefix)

let test_controller_matches_scratch () =
  let net, legacy_prefix, member_prefix = build_net () in
  let ctrl = Option.get (Framework.Network.controller net) in
  check_controller_matches ctrl ~legacy_prefix ~member_prefix "after settle";
  (* session loss: member 2 loses its peering toward the origin *)
  Framework.Network.fail_link net (art 2) (art 0);
  ignore (Framework.Network.settle net);
  check_controller_matches ctrl ~legacy_prefix ~member_prefix "after session loss";
  (* intra-cluster split: the switch graph itself changes *)
  Framework.Network.fail_link net (art 2) (art 3);
  ignore (Framework.Network.settle net);
  check_controller_matches ctrl ~legacy_prefix ~member_prefix "after intra split";
  (* full recovery *)
  Framework.Network.recover_link net (art 2) (art 0);
  Framework.Network.recover_link net (art 2) (art 3);
  ignore (Framework.Network.settle net);
  check_controller_matches ctrl ~legacy_prefix ~member_prefix "after recovery"

(* --- Recompute skipping: redundant events are elided, not mis-applied --- *)

let test_redundant_event_skips () =
  let net, legacy_prefix, member_prefix = build_net () in
  let ctrl = Option.get (Framework.Network.controller net) in
  let stats = Controller.stats ctrl in
  let before = Controller.decisions_for ctrl legacy_prefix in
  let recomputed0 = stats.Controller.prefixes_recomputed in
  let skipped0 = stats.Controller.recompute_skipped in
  (* a PORT_STATUS up for an already-up intra link: marks every known
     prefix dirty but changes no input (the graph edit is a no-op, so the
     version is stable) — every recompute must be skipped *)
  Controller.handle_openflow ctrl
    (Sdn.Openflow.Port_status
       { switch_asn = art 2; port = Net.Asn.to_int (art 3); up = true });
  Controller.flush_recompute ctrl;
  let nprefixes = List.length (Controller.known_prefixes ctrl) in
  Alcotest.(check bool) "some prefixes were dirty" true (nprefixes > 0);
  Alcotest.(check int) "all dirty prefixes skipped" (skipped0 + nprefixes)
    stats.Controller.recompute_skipped;
  Alcotest.(check int) "no prefix actually recomputed" recomputed0
    stats.Controller.prefixes_recomputed;
  check_maps "decisions unchanged" before (Controller.decisions_for ctrl legacy_prefix);
  (* a real change must still recompute: drop the member-originated
     prefix's origin *)
  Framework.Network.fail_link net (art 2) (art 3);
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "real change recomputes" true
    (stats.Controller.prefixes_recomputed > recomputed0);
  check_maps "post-change decisions match scratch"
    (scratch_compute ctrl ~originators:(Net.Asn.Set.singleton (art 3)) member_prefix)
    (Controller.decisions_for ctrl member_prefix)

let test_graph_version_noop_add () =
  let g = Net.Graph.create () in
  Net.Graph.add_edge g 1 2;
  let v = Net.Graph.version g in
  Net.Graph.add_edge g 1 2;
  Alcotest.(check int) "redundant add keeps version" v (Net.Graph.version g);
  Net.Graph.add_edge ~w:2.0 g 1 2;
  Alcotest.(check bool) "reweight bumps version" true (Net.Graph.version g > v);
  Alcotest.(check int) "still one edge" 1 (Net.Graph.edge_count g)

(* --- Decision.compare ≡ the reference step-list comparator --------------- *)

(* The pre-overhaul comparator, kept verbatim as the semantic reference:
   a list of lazily evaluated tie-break steps folded until one decides. *)
let reference_compare (a : Bgp.Route.t) (b : Bgp.Route.t) =
  let source_rank r =
    match Bgp.Route.source r with Bgp.Route.Local -> 0 | Bgp.Route.Ebgp _ -> 1
  in
  let neighbor_key r =
    match Bgp.Route.source r with
    | Bgp.Route.Local -> -1
    | Bgp.Route.Ebgp p -> Net.Asn.to_int p
  in
  let steps =
    [
      (fun () ->
        Int.compare (Bgp.Route.attrs b).Bgp.Attrs.local_pref
          (Bgp.Route.attrs a).Bgp.Attrs.local_pref);
      (fun () -> Int.compare (source_rank a) (source_rank b));
      (fun () ->
        Int.compare
          (Bgp.Attrs.path_length (Bgp.Route.attrs a))
          (Bgp.Attrs.path_length (Bgp.Route.attrs b)));
      (fun () ->
        Int.compare
          (Bgp.Attrs.origin_rank (Bgp.Route.attrs a).Bgp.Attrs.origin)
          (Bgp.Attrs.origin_rank (Bgp.Route.attrs b).Bgp.Attrs.origin));
      (fun () ->
        Int.compare (Bgp.Route.attrs a).Bgp.Attrs.med (Bgp.Route.attrs b).Bgp.Attrs.med);
      (fun () -> Int.compare (neighbor_key a) (neighbor_key b));
    ]
  in
  List.fold_left (fun c f -> if c <> 0 then c else f ()) 0 steps

let prefix = Option.get (Net.Ipv4.prefix_of_string "100.64.0.0/24")

(* A route's path is derived from its source: empty for a local route,
   headed by the neighbor for a learned one. *)
let route ~local_pref ~tail ~med ~origin ~source =
  let path =
    match source with Bgp.Route.Local -> [] | Bgp.Route.Ebgp n -> n :: List.map asn tail
  in
  let attrs = Bgp.Attrs.make ~as_path:path ~local_pref ~med ~origin ~next_hop:nh () in
  Bgp.Route.make ~attrs ~source

let arb_route =
  let gen =
    QCheck.Gen.(
      let* lp = int_range 90 130 in
      let* len = int_range 0 3 in
      let* tail = list_repeat len (int_range 65001 65008) in
      let* med = int_range 0 3 in
      let* origin = oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ] in
      let* source =
        frequency
          [ (1, return Bgp.Route.Local);
            (7, map (fun n -> Bgp.Route.Ebgp (asn n)) (int_range 65001 65008)) ]
      in
      return (route ~local_pref:lp ~tail ~med ~origin ~source))
  in
  QCheck.make ~print:(fun r -> Fmt.str "%a" (Bgp.Route.pp ~prefix) r) gen

let prop_compare_matches_reference =
  QCheck.Test.make ~name:"straight-line compare = reference step list" ~count:1000
    QCheck.(pair arb_route arb_route)
    (fun (a, b) -> Bgp.Decision.compare a b = reference_compare a b)

let suite =
  [
    Alcotest.test_case "arena compute matches fresh compute" `Quick test_arena_matches_fresh;
    Alcotest.test_case "controller matches from-scratch compute" `Quick
      test_controller_matches_scratch;
    Alcotest.test_case "redundant events are skipped" `Quick test_redundant_event_skips;
    Alcotest.test_case "redundant add_edge keeps graph version" `Quick
      test_graph_version_noop_add;
    QCheck_alcotest.to_alcotest prop_compare_matches_reference;
  ]
