(* Reactive flow installation: rules appear on demand with idle timeouts
   instead of being pushed for every decision. *)

let asn = Topology.Artificial.asn

let reactive_cfg =
  {
    Framework.Config.fast_test with
    Framework.Config.controller =
      {
        Cluster_ctl.Controller.recompute_delay = Engine.Time.ms 200;
        proactive = false;
        reactive_idle_timeout = Engine.Time.sec 5;
      };
  }

let build config =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 4) [ asn 2; asn 3 ] in
  let net = Framework.Network.create ~config ~seed:71 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  Framework.Network.originate net (asn 2) (plan.Framework.Addressing.origin_prefix (asn 2));
  ignore (Framework.Network.settle net);
  net

let table_size net member =
  Sdn.Flow_table.size (Sdn.Switch.table (Option.get (Framework.Network.switch net member)))

let test_no_rules_until_traffic () =
  let net = build reactive_cfg in
  Alcotest.(check int) "empty table before traffic" 0 (table_size net (asn 2));
  (* proactive mode installs immediately, for contrast *)
  let proactive = build Framework.Config.fast_test in
  Alcotest.(check bool) "proactive installs" true (table_size proactive (asn 2) > 0)

let test_traffic_installs_and_expires () =
  let net = build reactive_cfg in
  let plan = Framework.Network.plan net in
  (* first packet punts to the controller, which installs + forwards *)
  Framework.Network.inject net ~src:(asn 2)
    (Net.Packet.echo
       ~src:(plan.Framework.Addressing.host_addr (asn 2))
       ~dst:(plan.Framework.Addressing.host_addr (asn 0))
       1);
  (* inspect before the 5 s idle timeout can fire *)
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 1));
  Alcotest.(check bool) "rule installed on demand" true (table_size net (asn 2) > 0);
  Alcotest.(check bool) "packet still delivered" true
    ((Framework.Network.data_stats net).Framework.Network.delivered >= 2);
  (* idle expiry cleans the table; the switch notified the controller *)
  ignore (Framework.Network.settle net);
  Alcotest.(check int) "rule expired when idle" 0 (table_size net (asn 2));
  let prefix = plan.Framework.Addressing.origin_prefix (asn 0) in
  (* a later packet reinstalls (controller forgot the expired rule) *)
  Framework.Network.inject net ~src:(asn 2)
    (Net.Packet.echo
       ~src:(plan.Framework.Addressing.host_addr (asn 2))
       ~dst:(Net.Ipv4.nth_host prefix 10)
       2);
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 1));
  Alcotest.(check bool) "reinstalled on new traffic" true (table_size net (asn 2) > 0);
  ignore (Framework.Network.settle net)

let test_reactive_rules_refresh_on_reroute () =
  let net = build reactive_cfg in
  let plan = Framework.Network.plan net in
  let prefix = plan.Framework.Addressing.origin_prefix (asn 0) in
  Framework.Network.inject net ~src:(asn 2)
    (Net.Packet.echo
       ~src:(plan.Framework.Addressing.host_addr (asn 2))
       ~dst:(plan.Framework.Addressing.host_addr (asn 0))
       1);
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 1));
  let action () =
    let sw = Option.get (Framework.Network.switch net (asn 2)) in
    match Sdn.Flow_table.lookup (Sdn.Switch.table sw) (Net.Ipv4.nth_host prefix 10) with
    | Some { Sdn.Flow.action = Sdn.Flow.Output port; _ } -> Some port
    | _ -> None
  in
  Alcotest.(check (option int)) "direct exit first" (Some 65001) (action ());
  (* kill the direct link: the installed reactive rule must be refreshed
     by recomputation, not left stale *)
  Framework.Network.fail_link net (asn 2) (asn 0);
  ignore (Framework.Network.settle net);
  match action () with
  | Some port -> Alcotest.(check bool) "rerouted away from dead link" true (port <> 65001)
  | None -> () (* rule dropped is also safe: next packet reinstalls *)

(* PACKET_IN must pick the longest decided prefix holding the
   destination, not the first one in prefix order: 10.0.0.0/8 sorts
   before 10.1.0.0/16, but a packet to 10.1.2.3 belongs to the /16. *)
let test_packet_in_longest_prefix_match () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 4) [ asn 2; asn 3 ] in
  let net = Framework.Network.create ~config:reactive_cfg ~seed:71 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let pfx s = Option.get (Net.Ipv4.prefix_of_string s) in
  let covering = pfx "10.0.0.0/8" and specific = pfx "10.1.0.0/16" in
  Framework.Network.originate net (asn 0) covering;
  Framework.Network.originate net (asn 1) specific;
  ignore (Framework.Network.settle net);
  let plan = Framework.Network.plan net in
  Framework.Network.inject net ~src:(asn 2)
    (Net.Packet.echo
       ~src:(plan.Framework.Addressing.host_addr (asn 2))
       ~dst:(Net.Ipv4.addr_of_octets 10 1 2 3)
       1);
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 1));
  let table = Sdn.Switch.table (Option.get (Framework.Network.switch net (asn 2))) in
  let installed =
    List.map (fun (r : Sdn.Flow.rule) -> Net.Ipv4.prefix_to_string r.Sdn.Flow.match_prefix)
      (Sdn.Flow_table.rules table)
  in
  Alcotest.(check (list string)) "rule for the most specific prefix" [ "10.1.0.0/16" ] installed;
  ignore (Framework.Network.settle net)

let suite =
  [
    Alcotest.test_case "no rules until traffic" `Quick test_no_rules_until_traffic;
    Alcotest.test_case "install + idle expiry + reinstall" `Quick
      test_traffic_installs_and_expires;
    Alcotest.test_case "refresh on reroute" `Quick test_reactive_rules_refresh_on_reroute;
    Alcotest.test_case "packet-in longest prefix match" `Quick
      test_packet_in_longest_prefix_match;
  ]
