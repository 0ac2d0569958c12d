(* Sdn.Switch: flow programming and timeouts, BGP relaying, port status —
   exercised through its closures, no fabric needed. *)

open Sdn

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let member = Net.Asn.of_int 65010

type env = { control : Openflow.t list ref; bgp : (int * Bgp.Message.t) list ref }

(* Timeouts need the simulated clock to advance, so the simulator is
   returned with the switch. *)
let setup () =
  let sim = Engine.Sim.create () in
  let control = ref [] and bgp = ref [] in
  let switch =
    Switch.create ~sim ~asn:member ~node_id:65010
      ~send_control:(fun m ->
        control := m :: !control;
        true)
      ~send_bgp:(fun ~dst m ->
        bgp := (dst, m) :: !bgp;
        true)
      ~asn_of_node:(fun node -> if node >= 65001 then Some (Net.Asn.of_int node) else None)
      ~node_of_asn:(fun asn -> Some (Net.Asn.to_int asn))
      ()
  in
  (sim, switch, { control; bgp })

let test_flow_delete () =
  let _sim, sw, _env = setup () in
  let rule = Flow.make ~match_prefix:(p "100.64.5.0/24") (Flow.Output 65002) in
  Switch.handle_control sw (Openflow.Flow_mod { command = Openflow.Add; rule });
  Alcotest.(check int) "installed" 1 (Flow_table.size (Switch.table sw));
  Switch.handle_control sw (Openflow.Flow_mod { command = Openflow.Delete; rule });
  Alcotest.(check int) "table empty" 0 (Flow_table.size (Switch.table sw))

let test_bgp_relay_inbound () =
  let _sim, sw, env = setup () in
  let msg = Bgp.Message.Keepalive in
  Switch.handle_bgp sw ~from:65001 msg;
  match !(env.control) with
  | [ Openflow.Bgp_relay { member = m; neighbor; direction = Openflow.To_speaker; _ } ] ->
    Alcotest.(check int) "member" 65010 (Net.Asn.to_int m);
    Alcotest.(check int) "neighbor" 65001 (Net.Asn.to_int neighbor)
  | _ -> Alcotest.fail "expected BGP_RELAY to speaker"

let test_bgp_relay_outbound () =
  let _sim, sw, env = setup () in
  Switch.handle_control sw
    (Openflow.Bgp_relay
       { member; neighbor = Net.Asn.of_int 65001; direction = Openflow.To_neighbor;
         payload = Bgp.Message.Keepalive });
  match !(env.bgp) with
  | [ (65001, Bgp.Message.Keepalive) ] -> ()
  | _ -> Alcotest.fail "expected BGP toward the neighbor"

let removed_count control =
  List.length
    (List.filter (function Openflow.Flow_removed _ -> true | _ -> false) !control)

let test_hard_timeout () =
  let sim, sw, { control; _ } = setup () in
  Switch.handle_control sw
    (Openflow.Flow_mod
       { command = Openflow.Add;
         rule =
           Flow.make ~hard_timeout:(Engine.Time.sec 5) ~match_prefix:(p "100.64.5.0/24")
             (Flow.Output 65002) });
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 4) sim);
  Alcotest.(check int) "still installed before expiry" 1 (Flow_table.size (Switch.table sw));
  ignore (Engine.Sim.run sim);
  Alcotest.(check int) "removed at hard timeout" 0 (Flow_table.size (Switch.table sw));
  Alcotest.(check int) "controller notified" 1 (removed_count control)

let test_timeout_spares_replacement () =
  let sim, sw, _env = setup () in
  let add ?hard_timeout port =
    Switch.handle_control sw
      (Openflow.Flow_mod
         { command = Openflow.Add;
           rule =
             Flow.make ?hard_timeout ~match_prefix:(p "100.64.5.0/24")
               (Flow.Output port) })
  in
  add ~hard_timeout:(Engine.Time.sec 5) 65002;
  (* replace the rule (same key) before the old timer fires *)
  ignore (Engine.Sim.schedule_at sim (Engine.Time.sec 2) (fun () -> add 65003));
  ignore (Engine.Sim.run sim);
  (match Flow_table.rules (Switch.table sw) with
  | [ r ] ->
    Alcotest.(check bool) "replacement survives the old timer" true
      (Flow.action_equal r.Flow.action (Flow.Output 65003))
  | l -> Alcotest.failf "expected 1 rule, got %d" (List.length l))

let test_port_change_reports () =
  let _sim, sw, env = setup () in
  Switch.port_change sw ~peer:65001 ~up:false;
  match !(env.control) with
  | [ Openflow.Port_status { switch_asn; port; up } ] ->
    Alcotest.(check int) "switch" 65010 (Net.Asn.to_int switch_asn);
    Alcotest.(check int) "port" 65001 port;
    Alcotest.(check bool) "down" false up
  | _ -> Alcotest.fail "expected PORT_STATUS"

let suite =
  [
    Alcotest.test_case "flow delete" `Quick test_flow_delete;
    Alcotest.test_case "bgp relay inbound" `Quick test_bgp_relay_inbound;
    Alcotest.test_case "bgp relay outbound" `Quick test_bgp_relay_outbound;
    Alcotest.test_case "hard timeout" `Quick test_hard_timeout;
    Alcotest.test_case "timeout spares replacement" `Quick test_timeout_spares_replacement;
    Alcotest.test_case "port change reports" `Quick test_port_change_reports;
  ]
