(* Cluster_ctl.Flow_compiler: decision → FLOW_MOD diffing. *)

open Cluster_ctl

let asn = Net.Asn.of_int

let prefix = Option.get (Net.Ipv4.prefix_of_string "100.64.0.0/24")

let node_of_asn a = Some (Net.Asn.to_int a)

let decision ?(hop = As_graph.Exit { neighbor = asn 65001 }) member =
  {
    As_graph.member = asn member;
    hop;
    as_path = [ asn 65001 ];
    distance = 1.0;
    provenance = Bgp.Policy.From Bgp.Policy.Unrestricted;
  }

let diff ~installed ~desired ~members =
  Flow_compiler.diff ~prefix ~node_of_asn ~members:(List.map asn members)
    ~installed:
      (List.fold_left
         (fun acc (m, a) -> Net.Asn.Map.add (asn m) a acc)
         Net.Asn.Map.empty installed)
    ~desired:
      (List.fold_left
         (fun acc (m, d) -> Net.Asn.Map.add (asn m) d acc)
         Net.Asn.Map.empty desired)
    ()

let mods_of changes member =
  List.concat_map
    (fun (c : Flow_compiler.change) ->
      if Net.Asn.equal c.Flow_compiler.member (asn member) then c.Flow_compiler.mods else [])
    changes

let test_fresh_install () =
  let changes, installed =
    diff ~installed:[] ~desired:[ (65010, decision 65010) ] ~members:[ 65010 ]
  in
  (match mods_of changes 65010 with
  | [ Sdn.Openflow.Flow_mod { command = Sdn.Openflow.Add; rule } ] ->
    Alcotest.(check bool) "action output 65001" true
      (Sdn.Flow.action_equal rule.Sdn.Flow.action (Sdn.Flow.Output 65001));
    Alcotest.(check bool) "matches the decision's prefix" true
      (Net.Ipv4.equal_prefix rule.Sdn.Flow.match_prefix prefix)
  | _ -> Alcotest.fail "expected one Add");
  Alcotest.(check int) "state recorded" 1 (Net.Asn.Map.cardinal installed)

let test_no_change_no_mods () =
  let changes, _ =
    diff
      ~installed:[ (65010, Sdn.Flow.Output 65001) ]
      ~desired:[ (65010, decision 65010) ]
      ~members:[ 65010 ]
  in
  Alcotest.(check int) "silent when identical" 0 (List.length changes)

let test_action_change_replaces () =
  let changes, installed =
    diff
      ~installed:[ (65010, Sdn.Flow.Output 65002) ]
      ~desired:[ (65010, decision 65010) ]
      ~members:[ 65010 ]
  in
  (match mods_of changes 65010 with
  | [ Sdn.Openflow.Flow_mod { command = Sdn.Openflow.Add; rule } ] ->
    Alcotest.(check bool) "new action" true
      (Sdn.Flow.action_equal rule.Sdn.Flow.action (Sdn.Flow.Output 65001))
  | _ -> Alcotest.fail "expected replacing Add");
  Alcotest.(check bool) "installed updated" true
    (Net.Asn.Map.find_opt (asn 65010) installed = Some (Sdn.Flow.Output 65001))

let test_removal_deletes () =
  let changes, installed =
    diff ~installed:[ (65010, Sdn.Flow.Output 65001) ] ~desired:[] ~members:[ 65010 ]
  in
  (match mods_of changes 65010 with
  | [ Sdn.Openflow.Flow_mod { command = Sdn.Openflow.Delete; _ } ] -> ()
  | _ -> Alcotest.fail "expected Delete");
  Alcotest.(check int) "state empty" 0 (Net.Asn.Map.cardinal installed)

let test_deliver_local_installs_nothing () =
  let changes, installed =
    diff ~installed:[]
      ~desired:[ (65010, decision ~hop:As_graph.Deliver_local 65010) ]
      ~members:[ 65010 ]
  in
  Alcotest.(check int) "no mods" 0 (List.length changes);
  Alcotest.(check int) "no state" 0 (Net.Asn.Map.cardinal installed)

let test_intra_and_bridge_ports () =
  let changes, _ =
    diff ~installed:[]
      ~desired:
        [
          (65010, decision ~hop:(As_graph.Intra { next_member = asn 65011 }) 65010);
          ( 65011,
            decision ~hop:(As_graph.Bridge { via_neighbor = asn 65003; to_member = asn 65012 })
              65011 );
        ]
      ~members:[ 65010; 65011 ]
  in
  (match mods_of changes 65010 with
  | [ Sdn.Openflow.Flow_mod { rule; _ } ] ->
    Alcotest.(check bool) "intra port" true
      (Sdn.Flow.action_equal rule.Sdn.Flow.action (Sdn.Flow.Output 65011))
  | _ -> Alcotest.fail "intra add expected");
  match mods_of changes 65011 with
  | [ Sdn.Openflow.Flow_mod { rule; _ } ] ->
    Alcotest.(check bool) "bridge exits via neighbor" true
      (Sdn.Flow.action_equal rule.Sdn.Flow.action (Sdn.Flow.Output 65003))
  | _ -> Alcotest.fail "bridge add expected"

let suite =
  [
    Alcotest.test_case "fresh install" `Quick test_fresh_install;
    Alcotest.test_case "no change, no mods" `Quick test_no_change_no_mods;
    Alcotest.test_case "action change replaces" `Quick test_action_change_replaces;
    Alcotest.test_case "removal deletes" `Quick test_removal_deletes;
    Alcotest.test_case "deliver-local installs nothing" `Quick test_deliver_local_installs_nothing;
    Alcotest.test_case "intra and bridge ports" `Quick test_intra_and_bridge_ports;
  ]
