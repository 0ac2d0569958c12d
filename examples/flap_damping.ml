(* Route-flap damping vs the controller's delayed recomputation.

   An origin flaps its prefix; we compare three worlds:
   1. plain BGP            — every flap floods the network;
   2. BGP + RFC 2439       — receivers suppress the flapper (less churn,
                             but the route stays dark long after the
                             flapping stops);
   3. a 50% SDN deployment — the controller's delayed recomputation
                             batches the burst without the availability
                             penalty.

   The 16-AS clique at seed 31 is the world of EXPERIMENTS.md's
   ablation A5 table, whose first two rows this prints.

     dune exec examples/flap_damping.exe *)

let flap_world ~label ~damping ~sdn =
  let n = 16 in
  let flaps = 4 in
  if sdn = 0 then begin
    let r =
      Framework.Experiments.flap_run ~n ~flaps ~gap_s:45.0 ~damping ~seed:31
        ~config:Framework.Config.default ()
    in
    Fmt.pr "%-28s updates=%4d  recovery=%7.1fs  suppressions=%3d@." label
      r.Framework.Experiments.collector_updates_total
      r.Framework.Experiments.recovery_seconds r.Framework.Experiments.suppressions_total
  end
  else begin
    (* hybrid world: run the same storm by hand on a half-centralized clique *)
    let spec =
      Topology.Spec.with_sdn (Topology.Artificial.clique n)
        (List.init sdn (fun i -> Topology.Artificial.asn (n - 1 - i)))
    in
    let exp = Framework.Experiment.create ~seed:31 spec in
    let origin = Topology.Artificial.asn 0 in
    let prefix = Framework.Experiment.default_prefix exp origin in
    ignore (Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp origin)));
    let network = Framework.Experiment.network exp in
    let sim = Framework.Experiment.sim exp in
    let collector = Framework.Network.collector network in
    let before = Bgp.Collector.event_count collector in
    let t_final = ref Engine.Time.zero in
    for i = 1 to flaps do
      ignore (Framework.Experiment.withdraw exp origin);
      Framework.Network.run_until network
        (Engine.Time.add (Engine.Sim.now sim) (Engine.Time.sec 45));
      t_final := Engine.Sim.now sim;
      ignore (Framework.Experiment.announce exp origin);
      if i < flaps then
        Framework.Network.run_until network
          (Engine.Time.add (Engine.Sim.now sim) (Engine.Time.sec 45))
    done;
    ignore (Framework.Experiment.settle exp);
    let watcher = Framework.Experiment.watcher exp in
    let recovery =
      match Framework.Convergence.last_control_change watcher prefix with
      | Some t when Engine.Time.(t >= !t_final) ->
        Engine.Time.to_sec_f (Engine.Time.diff t !t_final)
      | Some _ | None -> 0.0
    in
    Fmt.pr "%-28s updates=%4d  recovery=%7.1fs  suppressions=  -@." label
      (Bgp.Collector.event_count collector - before)
      recovery
  end

let () =
  Fmt.pr "flap storm: 4 withdraw/announce cycles, 45 s apart, 16-AS clique@.@.";
  flap_world ~label:"plain BGP" ~damping:false ~sdn:0;
  flap_world ~label:"BGP + flap damping" ~damping:true ~sdn:0;
  flap_world ~label:"hybrid (8/16 centralized)" ~damping:false ~sdn:8;
  Fmt.pr
    "@.damping buys quiet at the price of availability (the route stays@.\
     suppressed ~49 min after the last flap); the hybrid deployment's@.\
     delayed recomputation absorbs the same burst and recovers within@.\
     one controller cycle of the flapping stopping.@."
