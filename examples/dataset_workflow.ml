(* Dataset workflow: build topologies from measured-data files, exactly
   as the original framework consumes iPlane and CAIDA snapshots.

   We synthesize an iPlane-format inter-PoP file and a CAIDA-format
   AS-relationship file, write them to disk, load them back through the
   parsers, and run a quick experiment on each.

     dune exec examples/dataset_workflow.exe *)

let write path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let () =
  let rng = Engine.Rng.create 99 in
  (* --- iPlane inter-PoP links --------------------------------------- *)
  let iplane_path = "example-iplane-links.txt" in
  write iplane_path (Topology.Iplane.generate_text ~ases:10 ~pops_per_as:3 rng);
  let iplane_spec =
    match Topology.Iplane.parse_file iplane_path with
    | Ok spec -> spec
    | Error e -> Fmt.failwith "iplane parse: %a" Topology.Iplane.pp_parse_error e
  in
  Fmt.pr "loaded %s: %d ASes, %d links (PoP pairs collapsed, min latency kept)@." iplane_path
    (Topology.Spec.node_count iplane_spec)
    (Topology.Spec.link_count iplane_spec);
  let r =
    Framework.Experiments.(run { (describe ~seed:3 (Graph iplane_spec)) with event = Announcement })
  in
  Fmt.pr "announcement on the iPlane graph converged in %.2f s@.@." r.seconds;
  (* --- CAIDA AS relationships ---------------------------------------- *)
  let caida_path = "example-caida-rel.txt" in
  write caida_path (Topology.Caida.render (Topology.Caida.generate ~tier1:3 ~tier2:6 ~stubs:10 rng));
  let caida_spec =
    match Topology.Caida.parse_file caida_path with
    | Ok spec -> spec
    | Error e -> Fmt.failwith "caida parse: %a" Topology.Caida.pp_parse_error e
  in
  Fmt.pr "loaded %s: %d ASes, %d relationship-annotated links@." caida_path
    (Topology.Spec.node_count caida_spec)
    (Topology.Spec.link_count caida_spec);
  let customers =
    List.length
      (List.filter
         (fun (l : Topology.Spec.link_spec) -> l.Topology.Spec.rel = Topology.Spec.C2p)
         (Topology.Spec.links caida_spec))
  in
  Fmt.pr "  %d customer-provider, %d other links@." customers
    (Topology.Spec.link_count caida_spec - customers);
  let origin = List.hd (List.rev (Topology.Spec.asns caida_spec)) in
  let r = Framework.Experiments.(run (describe ~origin ~seed:4 (Graph caida_spec))) in
  Fmt.pr "withdrawal of a stub prefix converged in %.2f s under valley-free policies@."
    r.seconds
