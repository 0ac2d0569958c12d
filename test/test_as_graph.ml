(* Cluster_ctl.As_graph: the per-prefix AS topology graph transformation —
   exits, intra-cluster routing, sub-cluster-aware loop avoidance, legacy
   bridges, and the loop-freedom invariant. *)

open Cluster_ctl

let asn = Net.Asn.of_int

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let attrs path = Bgp.Attrs.make ~as_path:(List.map asn path) ~next_hop:nh ()

let route ?(rel = Bgp.Policy.Unrestricted) member neighbor path =
  { As_graph.member = asn member; neighbor = asn neighbor; attrs = attrs path; rel }

let switch_graph edges =
  let g = Net.Graph.create () in
  List.iter (fun (u, v) -> Net.Graph.add_edge g u v) edges;
  g

let members l = Net.Asn.Set.of_list (List.map asn l)

let compute ?(originators = []) ~mem ~edges routes =
  let g = switch_graph edges in
  Net.Asn.Set.iter (fun m -> Net.Graph.add_node g (Net.Asn.to_int m)) (members mem);
  As_graph.compute ~members:(members mem) ~switch_graph:g ~routes
    ~originators:(Net.Asn.Set.of_list (List.map asn originators))
    ()

let decision map m = Net.Asn.Map.find_opt (asn m) map

let path_ints (d : As_graph.decision) = List.map Net.Asn.to_int d.As_graph.as_path

let test_classify () =
  let mem = members [ 10; 11 ] in
  (match As_graph.classify_path mem [ asn 1; asn 2 ] with
  | `External -> ()
  | `Reenters _ -> Alcotest.fail "external path misclassified");
  match As_graph.classify_path mem [ asn 1; asn 11; asn 2 ] with
  | `Reenters (segment, c) ->
    Alcotest.(check (list int)) "segment up to member" [ 1; 11 ]
      (List.map Net.Asn.to_int segment);
    Alcotest.(check int) "member found" 11 (Net.Asn.to_int c)
  | `External -> Alcotest.fail "re-entry missed"

let test_direct_exit () =
  let map = compute ~mem:[ 10 ] ~edges:[] [ route 10 1 [ 1; 2 ] ] in
  match decision map 10 with
  | Some d ->
    Alcotest.(check bool) "exit hop" true
      (d.As_graph.hop = As_graph.Exit { neighbor = asn 1 });
    Alcotest.(check (list int)) "path" [ 1; 2 ] (path_ints d);
    Alcotest.(check (float 0.0)) "distance" 2.0 d.As_graph.distance
  | None -> Alcotest.fail "member must be routed"

let test_best_exit_chosen () =
  let map =
    compute ~mem:[ 10 ] ~edges:[] [ route 10 1 [ 1; 2; 3 ]; route 10 4 [ 4 ] ]
  in
  match decision map 10 with
  | Some d ->
    Alcotest.(check bool) "shorter exit" true
      (d.As_graph.hop = As_graph.Exit { neighbor = asn 4 });
    Alcotest.(check (list int)) "path" [ 4 ] (path_ints d)
  | None -> Alcotest.fail "routed"

let test_intra_cluster_routing () =
  (* 10 -- 11, only 11 has an exit: 10 forwards through the cluster. *)
  let map = compute ~mem:[ 10; 11 ] ~edges:[ (10, 11) ] [ route 11 1 [ 1 ] ] in
  (match decision map 10 with
  | Some d ->
    Alcotest.(check bool) "intra hop" true
      (d.As_graph.hop = As_graph.Intra { next_member = asn 11 });
    Alcotest.(check (list int)) "path through member" [ 11; 1 ] (path_ints d);
    Alcotest.(check (float 0.0)) "distance 2" 2.0 d.As_graph.distance
  | None -> Alcotest.fail "10 must be routed");
  match decision map 11 with
  | Some d -> Alcotest.(check bool) "11 exits" true (d.As_graph.hop = As_graph.Exit { neighbor = asn 1 })
  | None -> Alcotest.fail "11 must be routed"

let test_exit_vs_intra_tradeoff () =
  (* 10's own exit has length 4; via 11 it is 1 (intra) + 1 = 2. *)
  let map =
    compute ~mem:[ 10; 11 ] ~edges:[ (10, 11) ]
      [ route 10 1 [ 1; 2; 3; 4 ]; route 11 5 [ 5 ] ]
  in
  match decision map 10 with
  | Some d ->
    Alcotest.(check bool) "prefers cluster egress via 11" true
      (d.As_graph.hop = As_graph.Intra { next_member = asn 11 })
  | None -> Alcotest.fail "routed"

let test_originator () =
  let map = compute ~originators:[ 10 ] ~mem:[ 10; 11 ] ~edges:[ (10, 11) ] [] in
  (match decision map 10 with
  | Some d ->
    Alcotest.(check bool) "local delivery" true (d.As_graph.hop = As_graph.Deliver_local);
    Alcotest.(check (list int)) "empty path" [] (path_ints d);
    Alcotest.(check bool) "originated provenance" true
      (d.As_graph.provenance = Bgp.Policy.Originated)
  | None -> Alcotest.fail "originator routed");
  match decision map 11 with
  | Some d ->
    Alcotest.(check bool) "neighbor goes intra" true
      (d.As_graph.hop = As_graph.Intra { next_member = asn 10 });
    Alcotest.(check (list int)) "path is the member" [ 10 ] (path_ints d)
  | None -> Alcotest.fail "11 routed"

let test_unreachable_absent () =
  let map = compute ~mem:[ 10; 11 ] ~edges:[] [ route 10 1 [ 1 ] ] in
  Alcotest.(check bool) "10 routed" true (decision map 10 <> None);
  Alcotest.(check bool) "11 unreachable" true (decision map 11 = None)

let test_same_subcluster_reentry_discarded () =
  (* 10 and 11 are in one sub-cluster; a route at 10 whose path re-enters
     via 11 must be dropped (it would be routed by the same controller:
     potential loop the AS path cannot express). *)
  let map = compute ~mem:[ 10; 11 ] ~edges:[ (10, 11) ] [ route 10 1 [ 1; 11; 2 ] ] in
  Alcotest.(check bool) "no decision from poisoned route" true (decision map 10 = None)

let test_bridge_across_subclusters () =
  (* Disjoint sub-clusters {10} and {11}; 10's route crosses the legacy
     world into 11, which has its own exit: allowed as a bridge. *)
  let map =
    compute ~mem:[ 10; 11 ] ~edges:[] [ route 10 1 [ 1; 11 ]; route 11 2 [ 2 ] ]
  in
  match decision map 10 with
  | Some d ->
    Alcotest.(check bool) "bridge hop" true
      (d.As_graph.hop = As_graph.Bridge { via_neighbor = asn 1; to_member = asn 11 });
    Alcotest.(check (list int)) "stitched path" [ 1; 11; 2 ] (path_ints d)
  | None -> Alcotest.fail "bridge must route 10"

let test_bridge_requires_target_route () =
  (* A bridge into a sub-cluster that itself has no route to the prefix
     must not produce a decision. *)
  let map = compute ~mem:[ 10; 11 ] ~edges:[] [ route 10 1 [ 1; 11 ] ] in
  Alcotest.(check bool) "dead-end bridge unused" true (decision map 10 = None)

let test_decision_order_deterministic () =
  let run () =
    compute ~mem:[ 10; 11; 12 ] ~edges:[ (10, 11); (11, 12) ]
      [ route 10 1 [ 1 ]; route 12 2 [ 2; 3 ] ]
  in
  let a = run () and b = run () in
  let render m =
    Net.Asn.Map.bindings m
    |> List.map (fun (k, d) -> Fmt.str "%a:%a" Net.Asn.pp k As_graph.pp_decision d)
    |> String.concat ";"
  in
  Alcotest.(check string) "bit-identical decisions" (render a) (render b)

(* The paper's design insight, §3: "we can not naively use the same loop
   avoidance mechanism as BGP."  Two members of one sub-cluster hold
   mutually-referential stale routes through each other (m1's route via
   legacy l1 re-enters at m2, m2's via l2 re-enters at m1).  BGP's
   own-ASN check passes both; realizing them forwards
   m1 -> l1 -> m2 -> l2 -> m1 — a loop.  The AS-graph transformation
   discards both. *)
let mutual_stale_routes =
  (* l1 = 101, l2 = 102, origin = 200 *)
  [ route 10 101 [ 101; 11; 200 ]; route 11 102 [ 102; 10; 200 ] ]

let test_naive_loops_on_mutual_stale_routes () =
  let members_set = members [ 10; 11 ] in
  let naive =
    As_graph.naive_compute ~members:members_set ~routes:mutual_stale_routes
      ~originators:Net.Asn.Set.empty ()
  in
  (* naive accepts both poisoned routes... *)
  Alcotest.(check bool) "naive routes m1" true
    (match decision naive 10 with
    | Some d -> d.As_graph.hop = As_graph.Exit { neighbor = asn 101 }
    | None -> false);
  Alcotest.(check bool) "naive routes m2" true
    (match decision naive 11 with
    | Some d -> d.As_graph.hop = As_graph.Exit { neighbor = asn 102 }
    | None -> false);
  (* ...and the realized forwarding loops: each legacy AS forwards into
     the member its route re-enters, per its own (stale) path. *)
  let legacy_next = function 101 -> Some 11 | 102 -> Some 10 | _ -> None in
  let member_next m =
    match decision naive m with
    | Some { As_graph.hop = As_graph.Exit { neighbor }; _ } -> Some (Net.Asn.to_int neighbor)
    | _ -> None
  in
  let next hop = if hop >= 100 then legacy_next hop else member_next hop in
  let rec walk hop seen steps =
    if steps > 16 then `Loop
    else if List.mem hop seen then `Loop
    else match next hop with None -> `Dead_end hop | Some n -> walk n (hop :: seen) (steps + 1)
  in
  (match walk 10 [] 0 with
  | `Loop -> ()
  | `Dead_end at -> Alcotest.failf "expected a forwarding loop, stopped at %d" at);
  (* the transformation refuses both routes instead *)
  let g = switch_graph [ (10, 11) ] in
  let safe =
    As_graph.compute ~members:members_set ~switch_graph:g ~routes:mutual_stale_routes
      ~originators:Net.Asn.Set.empty ()
  in
  Alcotest.(check bool) "transformation discards m1's poisoned route" true
    (decision safe 10 = None);
  Alcotest.(check bool) "transformation discards m2's poisoned route" true
    (decision safe 11 = None)

let test_naive_matches_compute_on_clean_routes () =
  (* with no cluster re-entry the two strategies agree on exits *)
  let members_set = members [ 10; 11 ] in
  let routes = [ route 10 101 [ 101; 200 ]; route 11 102 [ 102; 105; 200 ] ] in
  let naive =
    As_graph.naive_compute ~members:members_set ~routes ~originators:Net.Asn.Set.empty ()
  in
  let g = switch_graph [] in
  Net.Asn.Set.iter (fun m -> Net.Graph.add_node g (Net.Asn.to_int m)) members_set;
  let safe =
    As_graph.compute ~members:members_set ~switch_graph:g ~routes
      ~originators:Net.Asn.Set.empty ()
  in
  List.iter
    (fun m ->
      match (decision naive m, decision safe m) with
      | Some a, Some b ->
        Alcotest.(check bool) (Fmt.str "same hop for %d" m) true
          (a.As_graph.hop = b.As_graph.hop)
      | _ -> Alcotest.fail "both must route")
    [ 10; 11 ]

(* Loop freedom: follow Intra hops from any member; must terminate at an
   Exit/Bridge/Deliver_local without revisiting a member. *)
let follows_loop_free map =
  let ok = ref true in
  Net.Asn.Map.iter
    (fun start _ ->
      let rec walk m visited =
        match Net.Asn.Map.find_opt m map with
        | None -> ()
        | Some (d : As_graph.decision) -> (
          match d.As_graph.hop with
          | As_graph.Intra { next_member } ->
            if List.exists (Net.Asn.equal next_member) visited then ok := false
            else walk next_member (next_member :: visited)
          | As_graph.Exit _ | As_graph.Bridge _ | As_graph.Deliver_local -> ())
      in
      walk start [ start ])
    map;
  !ok

let prop_loop_free =
  let gen =
    QCheck.Gen.(
      let* n_members = int_range 1 6 in
      let* edges =
        list_size (int_range 0 8) (pair (int_range 0 (n_members - 1)) (int_range 0 (n_members - 1)))
      in
      let* n_routes = int_range 0 8 in
      let* routes =
        list_repeat n_routes
          (let* m = int_range 0 (n_members - 1) in
           let* neighbor = int_range 100 110 in
           let* len = int_range 1 4 in
           let* path = list_repeat len (int_range 100 120) in
           return (m, neighbor, path))
      in
      return (n_members, edges, routes))
  in
  QCheck.Test.make ~name:"compiled cluster routes are loop-free" ~count:300
    (QCheck.make ~print:(fun (n, e, r) ->
         Fmt.str "members=%d edges=%d routes=%d" n (List.length e) (List.length r))
       gen)
    (fun (n_members, edges, routes) ->
      let mem = List.init n_members (fun i -> 10 + i) in
      let edges =
        List.filter_map (fun (a, b) -> if a <> b then Some (10 + a, 10 + b) else None) edges
      in
      let routes = List.map (fun (m, nb, path) -> route (10 + m) nb (nb :: path)) routes in
      let map = compute ~mem ~edges routes in
      follows_loop_free map)

(* Bridge decisions must genuinely cross sub-clusters: a bridge into the
   member's own sub-cluster is exactly the loop case the transformation
   exists to discard. *)
let prop_bridges_cross_subclusters =
  QCheck.Test.make ~name:"bridges always cross sub-clusters" ~count:300
    (QCheck.make ~print:(fun i -> string_of_int i) QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let rng = Engine.Rng.create seed in
      let n_members = 2 + Engine.Rng.int rng 4 in
      let mem = List.init n_members (fun i -> 10 + i) in
      let edges =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if i < j && Engine.Rng.chance rng 0.4 then Some (10 + i, 10 + j) else None)
              (List.init n_members Fun.id))
          (List.init n_members Fun.id)
      in
      let routes =
        List.concat_map
          (fun i ->
            if Engine.Rng.chance rng 0.7 then begin
              let nb = 100 + Engine.Rng.int rng 5 in
              let mid =
                if Engine.Rng.chance rng 0.3 then [ 10 + Engine.Rng.int rng n_members ] else []
              in
              [ route (10 + i) nb ((nb :: mid) @ [ 200 ]) ]
            end
            else [])
          (List.init n_members Fun.id)
      in
      let g = switch_graph edges in
      List.iter (fun m -> Net.Graph.add_node g m) mem;
      let map =
        As_graph.compute
          ~members:(members mem)
          ~switch_graph:g ~routes ~originators:Net.Asn.Set.empty ()
      in
      (* recompute sub-cluster ids the same way *)
      let comp_of =
        let comps = Net.Graph.components g in
        fun m ->
          let mi = Net.Asn.to_int m in
          List.find_opt (fun c -> List.mem mi c) comps
      in
      Net.Asn.Map.for_all
        (fun m (d : As_graph.decision) ->
          match d.As_graph.hop with
          | As_graph.Bridge { to_member; _ } -> comp_of to_member <> comp_of m
          | As_graph.Exit _ | As_graph.Intra _ | As_graph.Deliver_local -> true)
        map)

(* --- Differential oracle: dense compute = the hash-table reference ------ *)

(* One random instance: 1-45 members with scattered ASNs (so index order
   and insertion order differ), split into random sub-clusters that are
   themselves often disconnected; routes in arbitrary order whose short
   paths over a small AS alphabet make equal lengths (ties) common, some
   re-entering the cluster; a few member originators. *)
let oracle_instance st =
  let k = 1 + Random.State.int st 45 in
  let pool = Array.init 200 (fun i -> 1000 + i) in
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  let member_ids = Array.sub pool 0 k in
  let members = Net.Asn.Set.of_list (Array.to_list (Array.map asn member_ids)) in
  let groups = 1 + Random.State.int st (min k 6) in
  let group = Array.init k (fun _ -> Random.State.int st groups) in
  let density = Random.State.float st 0.6 in
  let g = Net.Graph.create () in
  (* a quarter of the members are left off the graph unless linked *)
  Array.iter (fun m -> if Random.State.int st 4 > 0 then Net.Graph.add_node g m) member_ids;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if group.(i) = group.(j) && Random.State.float st 1.0 < density then
        Net.Graph.add_edge g member_ids.(i) member_ids.(j)
    done
  done;
  let legacy () = asn (1 + Random.State.int st 12) in
  let member () = asn member_ids.(Random.State.int st k) in
  let rels =
    [| Bgp.Policy.Customer; Bgp.Policy.Provider; Bgp.Policy.Peer; Bgp.Policy.Unrestricted |]
  in
  let routes =
    List.init
      (Random.State.int st ((2 * k) + 6))
      (fun _ ->
        let neighbor = if Random.State.int st 12 = 0 then member () else legacy () in
        let path = neighbor :: List.init (Random.State.int st 4) (fun _ -> legacy ()) in
        let path =
          if Random.State.int st 3 = 0 then
            path @ (member () :: List.init (Random.State.int st 3) (fun _ -> legacy ()))
          else path
        in
        {
          As_graph.member = (if Random.State.int st 20 = 0 then legacy () else member ());
          neighbor;
          attrs = Bgp.Attrs.make ~as_path:path ~next_hop:nh ();
          rel = rels.(Random.State.int st 4);
        })
  in
  let originators =
    Net.Asn.Set.filter (fun _ -> Random.State.int st 15 = 0) members
  in
  (members, g, routes, originators)

let decision_matches (a : As_graph.decision) (b : As_graph.decision) =
  a.As_graph.hop = b.As_graph.hop
  && List.equal Net.Asn.equal a.As_graph.as_path b.As_graph.as_path
  && Float.equal a.As_graph.distance b.As_graph.distance
  && a.As_graph.provenance = b.As_graph.provenance

(* Members with two or more exit routes of the same, shortest length. *)
let exit_ties members routes =
  Net.Asn.Set.fold
    (fun m acc ->
      let lens =
        List.filter_map
          (fun (r : As_graph.exit_route) ->
            if Net.Asn.equal r.As_graph.member m then
              match As_graph.classify_path members (Bgp.Attrs.as_path r.As_graph.attrs) with
              | `External -> Some (Bgp.Attrs.path_length r.As_graph.attrs)
              | `Reenters _ -> None
            else None)
          routes
      in
      match List.sort Int.compare lens with
      | a :: b :: _ when a = b -> acc + 1
      | _ -> acc)
    members 0

let test_matches_reference () =
  let st = Random.State.make [| 2014 |] in
  let arena = As_graph.create_arena () in
  let seen = Hashtbl.create 8 in
  let note key = Hashtbl.replace seen key (1 + Option.value ~default:0 (Hashtbl.find_opt seen key)) in
  for i = 1 to 1200 do
    let members, switch_graph, routes, originators = oracle_instance st in
    let expected = As_graph_reference.compute ~members ~switch_graph ~routes ~originators () in
    if exit_ties members routes > 0 then note "tie";
    if Net.Asn.Map.cardinal expected < Net.Asn.Set.cardinal members then note "unreachable";
    Net.Asn.Map.iter
      (fun _ (d : As_graph.decision) ->
        note
          (match d.As_graph.hop with
          | As_graph.Deliver_local -> "local"
          | As_graph.Exit _ -> "exit"
          | As_graph.Intra _ -> "intra"
          | As_graph.Bridge _ -> "bridge"))
      expected;
    let check label actual =
      if not (Net.Asn.Map.equal decision_matches expected actual) then
        Alcotest.failf "instance %d (%d members): %s differs from the reference@.%a@.vs@.%a" i
          (Net.Asn.Set.cardinal members) label
          Fmt.(list ~sep:cut As_graph.pp_decision)
          (List.map snd (Net.Asn.Map.bindings expected))
          Fmt.(list ~sep:cut As_graph.pp_decision)
          (List.map snd (Net.Asn.Map.bindings actual))
    in
    check "fresh" (As_graph.compute ~members ~switch_graph ~routes ~originators ());
    check "arena" (As_graph.compute ~arena ~members ~switch_graph ~routes ~originators ())
  done;
  (* the generator must reach every case the oracle is meant to pin *)
  List.iter
    (fun key ->
      if not (Hashtbl.mem seen key) then Alcotest.failf "no instance exercised %s" key)
    [ "tie"; "unreachable"; "local"; "exit"; "intra"; "bridge" ]

let suite =
  [
    Alcotest.test_case "classify_path" `Quick test_classify;
    Alcotest.test_case "direct exit" `Quick test_direct_exit;
    Alcotest.test_case "best exit chosen" `Quick test_best_exit_chosen;
    Alcotest.test_case "intra-cluster routing" `Quick test_intra_cluster_routing;
    Alcotest.test_case "exit vs intra trade-off" `Quick test_exit_vs_intra_tradeoff;
    Alcotest.test_case "originator" `Quick test_originator;
    Alcotest.test_case "unreachable absent" `Quick test_unreachable_absent;
    Alcotest.test_case "same-subcluster re-entry discarded" `Quick
      test_same_subcluster_reentry_discarded;
    Alcotest.test_case "bridge across sub-clusters" `Quick test_bridge_across_subclusters;
    Alcotest.test_case "dead-end bridge unused" `Quick test_bridge_requires_target_route;
    Alcotest.test_case "deterministic decisions" `Quick test_decision_order_deterministic;
    Alcotest.test_case "naive loop-avoidance loops (paper insight)" `Quick
      test_naive_loops_on_mutual_stale_routes;
    Alcotest.test_case "naive agrees on clean routes" `Quick
      test_naive_matches_compute_on_clean_routes;
    Alcotest.test_case "dense compute matches the reference" `Quick test_matches_reference;
    QCheck_alcotest.to_alcotest prop_loop_free;
    QCheck_alcotest.to_alcotest prop_bridges_cross_subclusters;
  ]
