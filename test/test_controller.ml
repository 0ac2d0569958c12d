(* Cluster_ctl.Controller integration: session loss, intra-cluster
   splits, and re-synchronization, driven through full networks. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

(* 0,1 legacy; 2,3 SDN members with an intra link (clique has all links) *)
let build ?(seed = 81) () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 4) [ asn 2; asn 3 ] in
  let net = Framework.Network.create ~config:cfg ~seed spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  ignore (Framework.Network.settle net);
  (net, plan.Framework.Addressing.origin_prefix (asn 0))

let decision net member prefix =
  Cluster_ctl.Controller.decision
    (Option.get (Framework.Network.controller net))
    ~member prefix

let test_session_loss_reroutes_member () =
  let net, prefix = build () in
  (match decision net (asn 2) prefix with
  | Some d ->
    Alcotest.(check bool) "direct exit to origin first" true
      (d.Cluster_ctl.As_graph.hop = Cluster_ctl.As_graph.Exit { neighbor = asn 0 })
  | None -> Alcotest.fail "member routed");
  (* kill member 2's link to the origin: its session (2,0) dies, the
     controller must reroute member 2 via its other peering or the
     cluster *)
  Framework.Network.fail_link net (asn 2) (asn 0);
  ignore (Framework.Network.settle net);
  (match decision net (asn 2) prefix with
  | Some d ->
    Alcotest.(check bool) "no longer via the dead peering" true
      (d.Cluster_ctl.As_graph.hop <> Cluster_ctl.As_graph.Exit { neighbor = asn 0 })
  | None -> Alcotest.fail "member 2 must still be routed");
  Alcotest.(check bool) "data plane follows" true
    (Framework.Monitor.reachable net ~src:(asn 2) ~dst:(asn 0))

let test_speaker_session_tracks_link () =
  let net, _ = build () in
  let speaker = Option.get (Framework.Network.speaker net) in
  Framework.Network.fail_link net (asn 2) (asn 0);
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "session down with the link" false
    (Cluster_ctl.Speaker.session_established speaker ~member:(asn 2) ~neighbor:(asn 0));
  Framework.Network.recover_link net (asn 2) (asn 0);
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "session back with the link" true
    (Cluster_ctl.Speaker.session_established speaker ~member:(asn 2) ~neighbor:(asn 0))

let test_resync_after_recovery () =
  let net, prefix = build () in
  (* member 3 originates a prefix; legacy 1 learns it over its peering *)
  let plan = Framework.Network.plan net in
  let sdn_prefix = plan.Framework.Addressing.origin_prefix (asn 3) in
  Framework.Network.originate net (asn 3) sdn_prefix;
  ignore (Framework.Network.settle net);
  let r1 = Option.get (Framework.Network.router net (asn 1)) in
  Alcotest.(check bool) "legacy learned before" true (Bgp.Router.best r1 sdn_prefix <> None);
  (* sever ALL of legacy 1's links except to the collector, then recover:
     the full-table sync on re-establishment must restore everything *)
  List.iter (fun n -> Framework.Network.fail_link net (asn 1) n) [ asn 0; asn 2; asn 3 ];
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "flushed while isolated" true (Bgp.Router.best r1 sdn_prefix = None);
  List.iter (fun n -> Framework.Network.recover_link net (asn 1) n) [ asn 0; asn 2; asn 3 ];
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "cluster route resynced" true (Bgp.Router.best r1 sdn_prefix <> None);
  Alcotest.(check bool) "legacy route resynced" true (Bgp.Router.best r1 prefix <> None)

let test_intra_split_changes_subclusters () =
  let net, _ = build () in
  let ctrl = Option.get (Framework.Network.controller net) in
  let components () =
    List.length (Net.Graph.components (Cluster_ctl.Controller.switch_graph ctrl))
  in
  Alcotest.(check int) "one sub-cluster" 1 (components ());
  Framework.Network.fail_link net (asn 2) (asn 3);
  ignore (Framework.Network.settle net);
  Alcotest.(check int) "split into two" 2 (components ());
  Framework.Network.recover_link net (asn 2) (asn 3);
  ignore (Framework.Network.settle net);
  Alcotest.(check int) "rejoined" 1 (components ())

let test_recompute_coalescing () =
  let net, _ = build ~seed:83 () in
  let ctrl = Option.get (Framework.Network.controller net) in
  let st = Cluster_ctl.Controller.stats ctrl in
  let batches = st.Cluster_ctl.Controller.recompute_batches in
  (* every batch takes at least one dirty prefix, recomputed or skipped *)
  Alcotest.(check bool) "batching coalesces input" true
    (st.Cluster_ctl.Controller.prefixes_recomputed + st.Cluster_ctl.Controller.recompute_skipped
    >= batches);
  Alcotest.(check bool) "recomputed at least once" true (batches > 0)

let suite =
  [
    Alcotest.test_case "session loss reroutes member" `Quick test_session_loss_reroutes_member;
    Alcotest.test_case "speaker session tracks link" `Quick test_speaker_session_tracks_link;
    Alcotest.test_case "resync after recovery" `Quick test_resync_after_recovery;
    Alcotest.test_case "intra split changes sub-clusters" `Quick
      test_intra_split_changes_subclusters;
    Alcotest.test_case "recompute coalescing" `Quick test_recompute_coalescing;
  ]
