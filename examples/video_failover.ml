(* The demo's end-to-end application view: how long a "video stream"
   toward a stub AS is interrupted while its primary route fails over.

   The stub's primary link dies and the network shifts onto the backup
   chain.  Every 100 ms of simulated time a burst of probes walks the
   data plane toward the stub; the interruption is the time until a
   burst comes back loss-free.  We run it once with pure BGP and once
   with half the clique centralized.

     dune exec examples/video_failover.exe *)

let () =
  let n = 8 in
  Fmt.pr "video fail-over demo: %d-AS clique, the stub's primary link dies@.@." n;
  List.iter
    (fun sdn ->
      let r =
        Framework.Experiments.(
          run
            {
              (describe ~members:(Last sdn) ~seed:7 (Failover (Topology.Artificial.clique n))) with
              measure = Loss { per_prefix = 2; interval_ms = 100 };
            })
      in
      Fmt.pr "%d/%d ASes centralized: loss_seconds=%.1f blackhole_seconds=%.1f \
              max_loss_ratio=%.2f@."
        sdn n r.Framework.Experiments.loss_seconds r.Framework.Experiments.blackhole_seconds
        r.Framework.Experiments.max_loss_ratio)
    [ 0; 4 ];
  Fmt.pr "@.(loss_seconds is the fail-over interruption window as the application sees it)@."
