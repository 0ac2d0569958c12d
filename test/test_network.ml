(* Framework.Network: full-stack wiring — sessions, FIBs, data plane,
   link failures — on small topologies with the fast test config. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let build ?(sdn = []) ?(seed = 3) spec_n =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique spec_n) sdn in
  let net = Framework.Network.create ~config:cfg ~seed spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  net

let test_sessions_up () =
  let net = build 4 in
  List.iter
    (fun a ->
      let r = Option.get (Framework.Network.router net a) in
      List.iter
        (fun b ->
          if not (Net.Asn.equal a b) then
            Alcotest.(check bool)
              (Fmt.str "%a-%a" Net.Asn.pp a Net.Asn.pp b)
              true
              (Bgp.Router.peer_established r b))
        (Framework.Network.asns net))
    (Framework.Network.asns net)

let test_collector_peered () =
  let net = build 3 in
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "collector saw updates" true
    (Bgp.Collector.event_count (Framework.Network.collector net) > 0)

let test_data_plane_end_to_end () =
  let net = build 4 in
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  Framework.Network.originate net (asn 2) (plan.Framework.Addressing.origin_prefix (asn 2));
  ignore (Framework.Network.settle net);
  (* walk: 2 -> 0 *)
  let outcome =
    Framework.Monitor.walk net ~src:(asn 2)
      ~dst_addr:(plan.Framework.Addressing.host_addr (asn 0))
  in
  Alcotest.(check bool) "delivered" true (Framework.Monitor.is_delivered outcome)

let test_link_failure_session_down () =
  let net = build 3 in
  let r0 = Option.get (Framework.Network.router net (asn 0)) in
  Framework.Network.fail_link net (asn 0) (asn 1);
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "session down after detection" false
    (Bgp.Router.peer_established r0 (asn 1));
  Framework.Network.recover_link net (asn 0) (asn 1);
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "session re-established" true (Bgp.Router.peer_established r0 (asn 1))

let test_reroute_after_failure () =
  (* line 0-1-2 plus direct 0-2?  Use a square: 0-1, 1-2, 2-3, 3-0.
     0 originates; 2 reaches it via 1 or 3; fail the active first hop and
     the data plane must re-route. *)
  let spec = Topology.Artificial.ring 4 in
  let net = Framework.Network.create ~config:cfg ~seed:3 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  ignore (Framework.Network.settle net);
  let dst_addr = plan.Framework.Addressing.host_addr (asn 0) in
  let first_hop () =
    match Framework.Monitor.walk net ~src:(asn 2) ~dst_addr with
    | Framework.Monitor.Delivered (_ :: hop :: _) -> Some hop
    | _ -> None
  in
  let hop1 = Option.get (first_hop ()) in
  Framework.Network.fail_link net (asn 2) hop1;
  ignore (Framework.Network.settle net);
  let hop2 = Option.get (first_hop ()) in
  Alcotest.(check bool) "rerouted around failure" false (Net.Asn.equal hop1 hop2)

let test_sdn_members_have_switches () =
  let net = build ~sdn:[ asn 2; asn 3 ] 4 in
  Alcotest.(check bool) "switch exists" true (Framework.Network.switch net (asn 2) <> None);
  Alcotest.(check bool) "no router for SDN member" true
    (Framework.Network.router net (asn 2) = None);
  Alcotest.(check bool) "controller exists" true (Framework.Network.controller net <> None);
  Alcotest.(check bool) "speaker exists" true (Framework.Network.speaker net <> None)

let test_speaker_sessions_established () =
  let net = build ~sdn:[ asn 2; asn 3 ] 4 in
  let speaker = Option.get (Framework.Network.speaker net) in
  (* member 2 peers with legacy 0, legacy 1 and the collector; member-to-
     member peerings are intra-cluster, not speaker sessions *)
  Alcotest.(check int) "sessions of member 2" 3
    (List.length (Cluster_ctl.Speaker.sessions_of speaker (asn 2)));
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Fmt.str "2/%a established" Net.Asn.pp n)
        true
        (Cluster_ctl.Speaker.session_established speaker ~member:(asn 2) ~neighbor:n))
    (Cluster_ctl.Speaker.sessions_of speaker (asn 2))

let test_hybrid_route_exchange () =
  let net = build ~sdn:[ asn 2; asn 3 ] 4 in
  let plan = Framework.Network.plan net in
  (* legacy 0 announces; SDN members must get flow rules; legacy 1 keeps
     its BGP route *)
  let prefix = plan.Framework.Addressing.origin_prefix (asn 0) in
  Framework.Network.originate net (asn 0) prefix;
  ignore (Framework.Network.settle net);
  let ctrl = Option.get (Framework.Network.controller net) in
  (match Cluster_ctl.Controller.decision ctrl ~member:(asn 2) prefix with
  | Some d ->
    Alcotest.(check bool) "member 2 exits toward 0" true
      (d.Cluster_ctl.As_graph.hop = Cluster_ctl.As_graph.Exit { neighbor = asn 0 })
  | None -> Alcotest.fail "controller must route member 2");
  let sw = Option.get (Framework.Network.switch net (asn 2)) in
  Alcotest.(check bool) "flow rule installed" true
    (Sdn.Flow_table.size (Sdn.Switch.table sw) > 0);
  (* SDN member originates; legacy routers must learn it via the speaker
     with the member's AS identity *)
  let sdn_prefix = plan.Framework.Addressing.origin_prefix (asn 3) in
  Framework.Network.originate net (asn 3) sdn_prefix;
  ignore (Framework.Network.settle net);
  let r0 = Option.get (Framework.Network.router net (asn 0)) in
  match Bgp.Router.best r0 sdn_prefix with
  | Some route ->
    Alcotest.(check (list int)) "AS identity preserved"
      [ Net.Asn.to_int (asn 3) ]
      (List.map Net.Asn.to_int (Bgp.Attrs.as_path (Bgp.Route.attrs route)))
  | None -> Alcotest.fail "legacy must learn the SDN-originated prefix"

let test_hybrid_data_path () =
  let net = build ~sdn:[ asn 2; asn 3 ] 4 in
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  Framework.Network.originate net (asn 3) (plan.Framework.Addressing.origin_prefix (asn 3));
  ignore (Framework.Network.settle net);
  Alcotest.(check bool) "sdn -> legacy" true
    (Framework.Monitor.reachable net ~src:(asn 3) ~dst:(asn 0));
  Alcotest.(check bool) "legacy -> sdn" true
    (Framework.Monitor.reachable net ~src:(asn 0) ~dst:(asn 3))

(* Announce then withdraw in a hybrid clique: both events converge and
   the withdrawal leaves no residual route in any legacy Loc-RIB. *)
let test_hybrid_withdrawal_clears_loc_ribs () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ asn 3; asn 4 ] in
  let exp = Framework.Experiment.create ~config:cfg ~seed:61 spec in
  let origin = asn 0 in
  let prefix = Framework.Experiment.default_prefix exp origin in
  let converges event =
    Framework.Experiment.convergence_seconds
      (Framework.Experiment.measure exp ~prefix (fun () -> ignore (event exp origin)))
  in
  Alcotest.(check bool) "announce converges" true
    (Float.is_finite (converges Framework.Experiment.announce));
  Alcotest.(check bool) "withdraw converges" true
    (Float.is_finite (converges Framework.Experiment.withdraw));
  let net = Framework.Experiment.network exp in
  List.iter
    (fun a ->
      match Framework.Network.router net a with
      | Some r -> Alcotest.(check int) "loc-rib empty" 0 (Bgp.Router.loc_size r)
      | None -> ())
    (Framework.Network.asns net)

(* The speaker keeps its sessions in configuration order (member by
   member, legacy neighbors in link-list order, then the collector), and a
   recompute batch flushes its UPDATEs in exactly that order.  Member 3's
   link list names its higher-numbered neighbor first, so configuration
   order is not sorted (member, neighbor) order. *)
let test_sessions_flush_in_configuration_order () =
  let node ?role i = Topology.Spec.node ?role (asn i) in
  let link i j = Topology.Spec.link (asn i) (asn j) in
  let spec =
    Topology.Spec.make ~title:"flush-order"
      ~nodes:
        [
          node 0; node 1; node 2; node ~role:Topology.Spec.Sdn 3; node ~role:Topology.Spec.Sdn 4;
        ]
      ~links:[ link 3 2; link 3 1; link 3 4; link 4 0; link 0 1; link 1 2 ]
  in
  let config = { cfg with Framework.Config.causal = Engine.Causal.Full } in
  let net = Framework.Network.create ~config ~seed:15 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let speaker = Option.get (Framework.Network.speaker net) in
  let pairs =
    List.map
      (fun s ->
        ( Net.Asn.to_int (Cluster_ctl.Speaker.session_member s),
          Net.Asn.to_int (Cluster_ctl.Speaker.session_neighbor s) ))
      (Cluster_ctl.Speaker.sessions speaker)
  in
  let collector = Net.Asn.to_int Framework.Network.collector_asn in
  Alcotest.(check (list (pair int int))) "configuration order"
    [ (65004, 65003); (65004, 65002); (65004, collector); (65005, 65001); (65005, collector) ]
    pairs;
  Alcotest.(check bool) "configuration order is not sorted order" false
    (List.sort compare pairs = pairs);
  (* run exactly up to the end of the recompute batch the origination
     triggers, remembering the span ids that batch step opened *)
  let ctrl = Option.get (Framework.Network.controller net) in
  let batches () = (Cluster_ctl.Controller.stats ctrl).Cluster_ctl.Controller.recompute_batches in
  let before = batches () in
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 3) (plan.Framework.Addressing.origin_prefix (asn 3));
  let sim = Framework.Network.sim net in
  let causal = Engine.Sim.causal sim in
  let mark = ref 0 in
  while
    batches () = before
    && begin
      mark := Engine.Causal.total causal;
      Engine.Sim.step sim
    end
  do
    ()
  done;
  let lo = !mark and hi = Engine.Causal.total causal in
  ignore (Framework.Network.settle net);
  (* The batch's sends are its [net.deliver] spans, in send order.  A
     relayed UPDATE lands on the member's switch ([sw-ASn]), which sends
     it on to the neighbor; flow mods stop at the switch. *)
  let spans = Engine.Causal.spans causal in
  let children id category =
    List.filter
      (fun (c : Engine.Causal.span) -> c.parent = id && String.equal c.category category)
      spans
  in
  let receiver (sp : Engine.Causal.span) =
    match children sp.id "node.deliver" with
    | [ d ] -> d.node
    | _ -> Alcotest.failf "span %d: expected one node.deliver child" sp.id
  in
  let asn_of_name = function
    | "collector" -> collector
    | name -> Scanf.sscanf name "%_[^A]AS%d" Fun.id
  in
  let flushed =
    List.concat_map
      (fun (sp : Engine.Causal.span) ->
        if sp.id < lo || sp.id >= hi || not (String.equal sp.category "net.deliver") then []
        else
          List.map
            (fun onward -> (asn_of_name (receiver sp), asn_of_name (receiver onward)))
            (children sp.id "net.deliver"))
      spans
  in
  Alcotest.(check (list (pair int int))) "UPDATEs leave in configuration order" pairs flushed

let test_determinism () =
  let run () =
    let net = build ~sdn:[ asn 3 ] ~seed:11 4 in
    let plan = Framework.Network.plan net in
    Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
    let t1 = Framework.Network.settle net in
    Framework.Network.withdraw net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
    let t2 = Framework.Network.settle net in
    (Engine.Time.to_us t1, Engine.Time.to_us t2,
     Bgp.Collector.event_count (Framework.Network.collector net))
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "bit-identical rerun" a b

(* A network built from the topology index configures what the per-AS
   link-list filter configured: each router's peers (its neighbors and
   the collector) and the speaker's sessions, member by member in spec
   order, each member's legacy neighbors in link-list order, then its
   collector session. *)
let prop_network_matches_filter =
  QCheck.Test.make ~name:"peers and sessions = link-list filter" ~count:100 QCheck.small_nat
    (fun seed ->
      let spec = Test_topology.random_spec seed in
      let net = Framework.Network.create ~config:cfg ~seed spec in
      let collector = Framework.Network.collector_asn in
      let is_sdn a = Topology.Spec.role_of spec a = Topology.Spec.Sdn in
      let routers_ok =
        List.for_all
          (fun a ->
            let r = Option.get (Framework.Network.router net a) in
            Bgp.Router.peer_asns r
            = List.sort Net.Asn.compare (collector :: Test_topology.filter_neighbors spec a))
          (Topology.Spec.legacy_asns spec)
      in
      let want =
        List.concat_map
          (fun m ->
            List.filter_map
              (fun (l : Topology.Spec.link_spec) ->
                let n = if Net.Asn.equal l.a m then l.b else l.a in
                if is_sdn n then None
                else
                  Some
                    ( m,
                      n,
                      Topology.Spec.neighbor_role_to_string
                        (Topology.Spec.neighbor_role_of_link ~me:m l) ))
              (Test_topology.filter_links spec m)
            @ [ (m, collector, "customer") ])
          (Topology.Spec.sdn_asns spec)
      in
      let got =
        match Framework.Network.speaker net with
        | None -> []
        | Some sp ->
          List.map
            (fun s ->
              ( Cluster_ctl.Speaker.session_member s,
                Cluster_ctl.Speaker.session_neighbor s,
                Bgp.Policy.relationship_to_string (Cluster_ctl.Speaker.session_policy s) ))
            (Cluster_ctl.Speaker.sessions sp)
      in
      routers_ok && got = want)

let suite =
  [
    Alcotest.test_case "sessions up" `Quick test_sessions_up;
    Alcotest.test_case "collector peered" `Quick test_collector_peered;
    Alcotest.test_case "data plane end-to-end" `Quick test_data_plane_end_to_end;
    Alcotest.test_case "link failure bounces session" `Quick test_link_failure_session_down;
    Alcotest.test_case "reroute after failure" `Quick test_reroute_after_failure;
    Alcotest.test_case "sdn wiring" `Quick test_sdn_members_have_switches;
    Alcotest.test_case "speaker sessions" `Quick test_speaker_sessions_established;
    Alcotest.test_case "hybrid route exchange" `Quick test_hybrid_route_exchange;
    Alcotest.test_case "hybrid data path" `Quick test_hybrid_data_path;
    Alcotest.test_case "hybrid withdrawal clears Loc-RIBs" `Quick
      test_hybrid_withdrawal_clears_loc_ribs;
    Alcotest.test_case "sessions flush in configuration order" `Quick
      test_sessions_flush_in_configuration_order;
    Alcotest.test_case "determinism" `Quick test_determinism;
    QCheck_alcotest.to_alcotest prop_network_matches_filter;
  ]
