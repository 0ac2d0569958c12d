(* Quickstart: the paper's headline experiment in ~20 lines.

   Build a 16-AS clique, centralize half of it under the IDR controller,
   announce a prefix, withdraw it, and compare convergence with the pure
   BGP baseline.

     dune exec examples/quickstart.exe *)

let () =
  (* AS 0 announces its prefix, the clique settles, AS 0 withdraws it *)
  let measure ~sdn_members =
    let run =
      Framework.Experiments.(
        describe ~members:(Last sdn_members) ~seed:1 (Graph (Topology.Artificial.clique 16)))
    in
    (Framework.Experiments.run run).seconds
  in
  let baseline = measure ~sdn_members:0 in
  let hybrid = measure ~sdn_members:8 in
  Fmt.pr "withdrawal convergence on a 16-AS clique@.";
  Fmt.pr "  pure BGP:             %6.1f s@." baseline;
  Fmt.pr "  8 of 16 centralized:  %6.1f s@." hybrid;
  Fmt.pr "  improvement:          %6.1fx@." (baseline /. hybrid);
  (* The framework also renders the experiment's component diagram
     (the paper's Fig. 1) for any topology: *)
  let spec =
    Result.get_ok
      Framework.Experiments.(
        check (describe ~members:(Last 8) (Graph (Topology.Artificial.clique 16))))
  in
  let dot = Framework.Visualize.spec_to_dot spec in
  let oc = open_out "quickstart-components.dot" in
  output_string oc dot;
  close_out oc;
  Fmt.pr "@.component diagram written to quickstart-components.dot@."
