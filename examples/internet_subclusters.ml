(* An Internet-like experiment: a synthetic CAIDA-style AS graph
   (tier-1 clique, multi-homed transit, stubs), with two SDN islands
   placed in the transit tier and controlled by one IDR controller.

   Demonstrates: dataset-style topology generation, valley-free policy
   auto-configuration, the controller's disjoint sub-cluster support, and
   convergence measurement on a realistic graph.

     dune exec examples/internet_subclusters.exe *)

let () =
  let tier1 = 3 and tier2 = 8 and stubs = 14 in
  let rng = Engine.Rng.create 2024 in
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs rng in
  Fmt.pr "synthetic CAIDA-style topology: %d ASes, %d links@."
    (Topology.Spec.node_count spec) (Topology.Spec.link_count spec);
  (* Two SDN islands in the transit tier: pick two disjoint *adjacent*
     tier-2 pairs so each island is an intra-connected sub-cluster, and
     the islands reach each other only over the legacy world. *)
  let t2 = List.init tier2 (fun i -> Topology.Artificial.asn (tier1 + i)) in
  let adjacent a b = List.exists (Net.Asn.equal b) (Topology.Spec.neighbors spec a) in
  let disjoint_from used a b =
    List.for_all (fun u -> (not (adjacent u a)) && not (adjacent u b)) used
  in
  let rec pick_pairs acc used = function
    | [] -> List.rev acc
    | a :: rest when List.length acc < 2 && not (List.memq a used) -> (
      match
        List.find_opt
          (fun b -> (not (List.memq b used)) && adjacent a b && disjoint_from used a b)
          rest
      with
      | Some b -> pick_pairs ((a, b) :: acc) (a :: b :: used) rest
      | None -> pick_pairs acc used rest)
    | _ :: rest -> pick_pairs acc used rest
  in
  let pairs = pick_pairs [] [] t2 in
  let islands = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  let spec = Topology.Spec.with_sdn spec islands in
  let exp = Framework.Experiment.create ~seed:5 spec in
  (match Framework.Network.controller (Framework.Experiment.network exp) with
  | Some ctrl ->
    let g = Cluster_ctl.Controller.switch_graph ctrl in
    Fmt.pr "SDN cluster: %d members in %d sub-cluster(s)@."
      (List.length (Cluster_ctl.Controller.members ctrl))
      (List.length (Net.Graph.components g))
  | None -> assert false);
  (* a stub announces and withdraws its prefix; measure both *)
  let origin = Topology.Artificial.asn (tier1 + tier2) (* first stub *) in
  let prefix = Framework.Experiment.default_prefix exp origin in
  let m_up =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp origin))
  in
  Fmt.pr "@.announcement by %a: converged in %.2f s (%d best-route changes)@." Net.Asn.pp origin
    (Framework.Experiment.convergence_seconds m_up)
    m_up.Framework.Convergence.changes;
  (* verify global reachability with valley-free policies in force *)
  let matrix =
    Framework.Monitor.connectivity_matrix (Framework.Experiment.network exp) ~origins:[ origin ]
  in
  let ok = List.length (List.filter (fun (_, _, r) -> r) matrix) in
  Fmt.pr "reachability to %a: %d/%d ASes@." Net.Asn.pp origin ok (List.length matrix);
  let m_down =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp origin))
  in
  Fmt.pr "withdrawal: converged in %.2f s (%d changes)@."
    (Framework.Experiment.convergence_seconds m_down)
    m_down.Framework.Convergence.changes;
  (* which ASes changed their route for the prefix most often *)
  let history = Framework.Convergence.history (Framework.Experiment.watcher exp) prefix in
  let by_as =
    List.fold_left
      (fun m (_, asn) -> Net.Asn.Map.update asn (fun c -> Some (1 + Option.value c ~default:0)) m)
      Net.Asn.Map.empty history
  in
  Fmt.pr "@.%d route changes for %a; busiest ASes:@." (List.length history) Net.Ipv4.pp_prefix
    prefix;
  let top =
    List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) (Net.Asn.Map.bindings by_as)
    |> List.filteri (fun i _ -> i < 5)
  in
  List.iter (fun (asn, count) -> Fmt.pr "  %-12s %d@." (Net.Asn.to_string asn) count) top
