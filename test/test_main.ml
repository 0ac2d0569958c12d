(* Aggregates every module's suite into one alcotest run. *)

let () =
  Alcotest.run "hybridsdn"
    [
      ("engine.time", Test_time.suite);
      ("engine.heap", Test_heap.suite);
      ("engine.rng", Test_rng.suite);
      ("engine.stats", Test_stats.suite);
      ("engine.sim", Test_sim.suite);
      ("engine.metrics", Test_metrics.suite);
      ("engine.causal", Test_causal.suite);
      ("engine.node", Test_node_runtime.suite);
      ("engine.pool", Test_parallel.suite);
      ("net.ipv4", Test_ipv4.suite);
      ("net.graph", Test_graph.suite);
      ("net.fib", Test_fib.suite);
      ("net.netsim", Test_netsim.suite);
      ("topology", Test_topology.suite);
      ("bgp.attrs", Test_bgp_attrs.suite);
      ("bgp.message", Test_message.suite);
      ("bgp.decision", Test_decision.suite);
      ("bgp.policy", Test_policy.suite);
      ("bgp.rib", Test_rib.suite);
      ("bgp.rib_differential", Test_rib_differential.suite);
      ("bgp.mrai", Test_mrai.suite);
      ("bgp.router", Test_router.suite);
      ("bgp.liveness", Test_liveness.suite);
      ("bgp.session", Test_session.suite);
      ("bgp.collector", Test_collector.suite);
      ("sdn.flow_table", Test_flow_table.suite);
      ("sdn.switch", Test_switch.suite);
      ("cluster.as_graph", Test_as_graph.suite);
      ("cluster.flow_compiler", Test_flow_compiler.suite);
      ("cluster.recompute", Test_recompute.suite);
      ("cluster.speaker", Test_speaker.suite);
      ("cluster.controller", Test_controller.suite);
      ("cluster.incremental", Test_incremental.suite);
      ("framework.addressing", Test_addressing.suite);
      ("framework.network", Test_network.suite);
      ("framework.convergence", Test_convergence.suite);
      ("framework.monitor", Test_monitor.suite);
      ("net.dataplane", Test_dataplane.suite);
      ("framework.visualize", Test_visualize.suite);
      ("framework.scenario", Test_scenario.suite);
      ("framework.chaos", Test_chaos.suite);
      ("framework.experiments", Test_experiments.suite);
      ("formats", Test_formats.suite);
      ("framework.looking_glass", Test_looking_glass.suite);
      ("framework.quagga_conf", Test_quagga_conf.suite);
      ("invariants", Test_invariants.suite);
    ]
