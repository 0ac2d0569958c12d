(* Cluster_ctl.Speaker in isolation: session FSM, relaying, dedup. *)

let asn = Net.Asn.of_int

let member = asn 65010

let neighbor = asn 65001

let nh = Net.Ipv4.addr_of_octets 10 0 10 1

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let policy = Bgp.Policy.make Bgp.Policy.Unrestricted

let setup () =
  let sim = Engine.Sim.create () in
  let wire = ref [] in
  let speaker =
    Cluster_ctl.Speaker.create ~sim ~send_relay:(fun ~member ~neighbor msg ->
        wire := (member, neighbor, msg) :: !wire;
        true)
      ()
  in
  let updates = ref [] and sessions = ref [] in
  Cluster_ctl.Speaker.attach_controller speaker
    ~on_update:(fun s u ->
      updates :=
        (Cluster_ctl.Speaker.session_member s, Cluster_ctl.Speaker.session_neighbor s, u)
        :: !updates)
    ~on_session:(fun s ~up ->
      sessions :=
        (Cluster_ctl.Speaker.session_member s, Cluster_ctl.Speaker.session_neighbor s, up)
        :: !sessions);
  Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh ~policy;
  (speaker, wire, updates, sessions)

let open_msg = Bgp.Message.Open { asn = neighbor; router_id = nh; hold_time = 0 }

let update_msg =
  Bgp.Message.Update
    { Bgp.Message.announced = [ (p "1.2.3.0/24", Bgp.Attrs.make ~as_path:[ neighbor ] ~next_hop:nh ()) ];
      withdrawn = [] }

let test_open_handshake_preserves_identity () =
  let speaker, wire, _, sessions = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  (match !wire with
  | [ (m, n, Bgp.Message.Open { asn = open_asn; _ }) ] ->
    Alcotest.(check int) "to the right member switch" 65010 (Net.Asn.to_int m);
    Alcotest.(check int) "toward neighbor" 65001 (Net.Asn.to_int n);
    Alcotest.(check int) "speaks AS the member" 65010 (Net.Asn.to_int open_asn)
  | _ -> Alcotest.fail "expected OPEN out");
  Alcotest.(check (list (triple int int bool))) "controller notified up"
    [ (65010, 65001, true) ]
    (List.map (fun (m, n, up) -> (Net.Asn.to_int m, Net.Asn.to_int n, up)) !sessions);
  Alcotest.(check bool) "established" true
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor)

let test_update_relayed_to_controller () =
  let speaker, _, updates, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor update_msg;
  Alcotest.(check int) "one update" 1 (List.length !updates)

let test_update_before_open_dropped () =
  let speaker, _, updates, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor update_msg;
  Alcotest.(check int) "dropped when not established" 0 (List.length !updates)

let test_announce_dedup () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let before = List.length !wire in
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Alcotest.(check int) "identical announcement suppressed" (before + 1) (List.length !wire);
  let attrs2 = Bgp.Attrs.prepend attrs (asn 65020) in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs2;
  Alcotest.(check int) "changed announcement sent" (before + 2) (List.length !wire)

let test_withdraw_only_if_advertised () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let before = List.length !wire in
  Cluster_ctl.Speaker.withdraw speaker ~member ~neighbor (p "9.9.9.0/24");
  Alcotest.(check int) "nothing to withdraw" before (List.length !wire);
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Cluster_ctl.Speaker.withdraw speaker ~member ~neighbor (p "9.9.9.0/24");
  Alcotest.(check int) "announce + withdraw" (before + 2) (List.length !wire);
  Alcotest.(check bool) "adj-out cleared" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None)

let test_session_down_clears_state () =
  let speaker, _, _, sessions = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Cluster_ctl.Speaker.session_down speaker ~member ~neighbor;
  Alcotest.(check bool) "down" false
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  Alcotest.(check bool) "adj-out flushed" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None);
  Alcotest.(check bool) "down notified" true
    (List.exists (fun (_, _, up) -> not up) !sessions)

let test_duplicate_session_rejected () =
  let speaker, _, _, _ = setup () in
  match Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh ~policy with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate session must raise"

let suite =
  [
    Alcotest.test_case "open handshake + AS identity" `Quick test_open_handshake_preserves_identity;
    Alcotest.test_case "update relayed to controller" `Quick test_update_relayed_to_controller;
    Alcotest.test_case "update before open dropped" `Quick test_update_before_open_dropped;
    Alcotest.test_case "announce dedup" `Quick test_announce_dedup;
    Alcotest.test_case "withdraw only if advertised" `Quick test_withdraw_only_if_advertised;
    Alcotest.test_case "session down clears state" `Quick test_session_down_clears_state;
    Alcotest.test_case "duplicate session rejected" `Quick test_duplicate_session_rejected;
  ]
