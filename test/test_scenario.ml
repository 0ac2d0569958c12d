(* Framework.Scenario: declarative timed experiment scripts. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let test_actions_execute_in_order () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:31 (Topology.Artificial.clique 3) in
  let t0 = Engine.Time.to_sec_f (Framework.Experiment.now exp) in
  let scenario =
    Framework.Scenario.make ~title:"demo"
      [
        Framework.Scenario.at (t0 +. 1.0) (Framework.Scenario.Announce (asn 0, None));
        Framework.Scenario.at (t0 +. 20.0) (Framework.Scenario.Withdraw (asn 0, None));
        Framework.Scenario.at (t0 +. 10.0) (Framework.Scenario.Note "midpoint");
      ]
  in
  let log = Framework.Scenario.run exp scenario in
  let kinds =
    List.map
      (fun (_, action) ->
        match action with
        | Framework.Scenario.Announce _ -> "announce"
        | Framework.Scenario.Withdraw _ -> "withdraw"
        | Framework.Scenario.Note _ -> "note"
        | _ -> "other")
      log
  in
  Alcotest.(check (list string)) "sorted by time" [ "announce"; "note"; "withdraw" ] kinds;
  (* after announce+withdraw the route must be gone everywhere *)
  let net = Framework.Experiment.network exp in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  List.iter
    (fun a ->
      match Framework.Network.router net a with
      | Some r -> Alcotest.(check bool) "no residue" true (Bgp.Router.best r prefix = None)
      | None -> ())
    (Framework.Network.asns net)

let test_link_actions () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:32 (Topology.Artificial.ring 4) in
  let t0 = Engine.Time.to_sec_f (Framework.Experiment.now exp) in
  let scenario =
    Framework.Scenario.make ~title:"flap"
      [
        Framework.Scenario.at (t0 +. 0.5) (Framework.Scenario.Fail_link (asn 0, asn 1));
        Framework.Scenario.at (t0 +. 5.0) (Framework.Scenario.Recover_link (asn 0, asn 1));
      ]
  in
  ignore (Framework.Scenario.run exp scenario);
  let net = Framework.Experiment.network exp in
  let r0 = Option.get (Framework.Network.router net (asn 0)) in
  Alcotest.(check bool) "session recovered after flap" true
    (Bgp.Router.peer_established r0 (asn 1))

let test_crash_restart_actions () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:34 (Topology.Artificial.clique 4) in
  let t0 = Engine.Time.to_sec_f (Framework.Experiment.now exp) in
  let scenario =
    Framework.Scenario.make ~title:"chaos"
      [
        Framework.Scenario.at (t0 +. 0.1) (Framework.Scenario.Announce (asn 0, None));
        Framework.Scenario.at (t0 +. 10.0) (Framework.Scenario.Crash_node (asn 1));
        Framework.Scenario.at (t0 +. 12.0) (Framework.Scenario.Restart_node (asn 1));
      ]
  in
  ignore (Framework.Scenario.run exp scenario);
  let net = Framework.Experiment.network exp in
  let r1 = Option.get (Framework.Network.router net (asn 1)) in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  Alcotest.(check bool) "session back after restart" true
    (Bgp.Router.peer_established r1 (asn 0));
  Alcotest.(check bool) "route relearned after restart" true
    (Bgp.Router.best r1 prefix <> None)

let test_text_round_trip () =
  let text =
    "# scenario: chaos\n@1.000 announce AS65000\n@10.000 crash AS65001\n\
     @12.000 restart AS65001\n@15.000 fail-link AS65000 AS65001\n"
  in
  match Framework.Scenario.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok sc -> (
    let kinds =
      List.map
        (fun (s : Framework.Scenario.step) ->
          match s.action with
          | Framework.Scenario.Crash_node _ -> "crash"
          | Framework.Scenario.Restart_node _ -> "restart"
          | Framework.Scenario.Announce _ -> "announce"
          | Framework.Scenario.Fail_link _ -> "fail-link"
          | _ -> "other")
        (Framework.Scenario.steps sc)
    in
    Alcotest.(check (list string)) "parsed actions"
      [ "announce"; "crash"; "restart"; "fail-link" ]
      kinds;
    (* render -> parse -> render must be a fixed point *)
    let rendered = Framework.Scenario.render sc in
    match Framework.Scenario.parse_string rendered with
    | Error e -> Alcotest.fail e
    | Ok sc2 ->
      Alcotest.(check string) "round trip" rendered (Framework.Scenario.render sc2))

let test_failure_domain_round_trip () =
  (* the failure-domain verbs: partition (AS and ctrl forms), flap, heal *)
  let text =
    "@1.000 partition AS65001 AS65002\n@2.000 partition AS65003 ctrl\n\
     @3.000 flap AS65001 AS65004 3\n@9.000 heal\n"
  in
  match Framework.Scenario.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok sc -> (
    (match Framework.Scenario.steps sc with
    | [ s1; s2; s3; s4 ] ->
      (match s1.Framework.Scenario.action with
      | Framework.Scenario.Partition (_, Some _) -> ()
      | _ -> Alcotest.fail "expected AS partition");
      (match s2.Framework.Scenario.action with
      | Framework.Scenario.Partition (a, None) ->
        Alcotest.(check int) "ctrl partition target" 65003 (Net.Asn.to_int a)
      | _ -> Alcotest.fail "expected ctrl partition");
      (match s3.Framework.Scenario.action with
      | Framework.Scenario.Flap (_, _, n) -> Alcotest.(check int) "flap count" 3 n
      | _ -> Alcotest.fail "expected flap");
      (match s4.Framework.Scenario.action with
      | Framework.Scenario.Heal -> ()
      | _ -> Alcotest.fail "expected heal")
    | _ -> Alcotest.fail "expected four steps");
    let rendered = Framework.Scenario.render sc in
    match Framework.Scenario.parse_string rendered with
    | Error e -> Alcotest.fail e
    | Ok sc2 ->
      Alcotest.(check string) "round trip" rendered (Framework.Scenario.render sc2))

let test_bad_failure_domain_lines () =
  List.iter
    (fun line ->
      match Framework.Scenario.parse_string line with
      | Ok _ -> Alcotest.fail (line ^ " must not parse")
      | Error _ -> ())
    [
      "@1.0 partition AS65001";
      "@1.0 flap AS65001 AS65002 0";
      "@1.0 flap AS65001 AS65002 many";
      "@1.0 partition nonsense ctrl";
      "@nan announce AS65001";
      "@inf announce AS65001";
      "@-5 announce AS65001";
      "@1e300 announce AS65001";
      "@1.0 crash AS65001 AS65002 junk";
      "@1.0 heal now please";
      "@1.0 ping AS65001 AS65000";
    ]

let test_partition_flap_heal_execute () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:35 (Topology.Artificial.ring 4) in
  let t0 = Engine.Time.to_sec_f (Framework.Experiment.now exp) in
  let scenario =
    Framework.Scenario.make ~title:"failure-domain"
      [
        Framework.Scenario.at (t0 +. 0.1) (Framework.Scenario.Announce (asn 0, None));
        Framework.Scenario.at (t0 +. 5.0) (Framework.Scenario.Partition (asn 0, Some (asn 1)));
        Framework.Scenario.at (t0 +. 6.0) (Framework.Scenario.Flap (asn 2, asn 3, 2));
        Framework.Scenario.at (t0 +. 20.0) Framework.Scenario.Heal;
      ]
  in
  ignore (Framework.Scenario.run exp scenario);
  let net = Framework.Experiment.network exp in
  (* heal brought the partitioned link back; the flap ended recovered *)
  Alcotest.(check bool) "partitioned link healed" true (Framework.Network.link_up net (asn 0) (asn 1));
  Alcotest.(check bool) "flapped link ends up" true (Framework.Network.link_up net (asn 2) (asn 3));
  let r0 = Option.get (Framework.Network.router net (asn 0)) in
  Alcotest.(check bool) "session re-established after heal" true
    (Bgp.Router.peer_established r0 (asn 1))

(* --- Steps checked against the network --------------------------------- *)

let test_missing_targets_rejected () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:36 (Topology.Artificial.clique 4) in
  let net = Framework.Experiment.network exp in
  let prefix = Framework.Experiment.default_prefix exp (asn 1) in
  let t0 = Framework.Experiment.now exp in
  List.iter
    (fun bad ->
      (* a valid step first: it must not run either *)
      let text = "@0.5 announce AS65001\n" ^ bad ^ "\n" in
      let sc =
        match Framework.Scenario.parse_string text with
        | Ok sc -> sc
        | Error e -> Alcotest.fail e
      in
      (match Framework.Scenario.validate net sc with
      | Ok () -> Alcotest.failf "%s must not validate" bad
      | Error _ -> ());
      match Framework.Scenario.run exp sc with
      | _ -> Alcotest.failf "%s must not run" bad
      | exception Invalid_argument _ ->
        ignore (Framework.Network.settle net);
        Alcotest.(check int) "nothing ran" (Engine.Time.to_us t0)
          (Engine.Time.to_us (Framework.Experiment.now exp));
        let r = Option.get (Framework.Network.router net (asn 2)) in
        Alcotest.(check bool) "announce never scheduled" true (Bgp.Router.best r prefix = None))
    [
      "@1.0 fail-link AS65001 AS65099";
      "@1.0 flap AS65099 AS65001 2";
      "@1.0 crash AS65099";
      "@1.0 partition AS65001 ctrl";
      "@1.0 recover-ctrl AS65001";
      "@1.0 crash-head";
    ]

(* --- Chaos schedules are scenario text ---------------------------------- *)

(* Every chaos fault, expanded to its steps, renders to text and parses
   back to the same steps with microsecond times intact. *)
let test_chaos_schedules_round_trip () =
  let spec = Framework.Chaos.default_spec () in
  let kinds = Hashtbl.create 8 and schedules = ref 0 in
  List.iter
    (fun seed ->
      let rng = Engine.Rng.create seed in
      for i = 0 to 49 do
        let schedule = Framework.Chaos.generate ~spec ~rng i in
        List.iter
          (fun (e : Framework.Chaos.event) ->
            let word = Fmt.str "%a" Framework.Chaos.pp_fault e.Framework.Chaos.fault in
            Hashtbl.replace kinds (List.hd (String.split_on_char ' ' word)) ())
          schedule.Framework.Chaos.events;
        let sc =
          Framework.Scenario.make ~title:"chaos"
            (List.concat_map Framework.Chaos.steps schedule.Framework.Chaos.events)
        in
        let text = Framework.Scenario.render sc in
        match Framework.Scenario.parse_string text with
        | Error e -> Alcotest.failf "%s\n%s" e text
        | Ok back ->
          if Framework.Scenario.steps back <> Framework.Scenario.steps sc then
            Alcotest.failf "round trip changed the steps:\n%s" text;
          incr schedules
      done)
    [ 1; 7; 99; 2014; 31337 ];
  Alcotest.(check bool) "at least 200 schedules" true (!schedules >= 200);
  Alcotest.(check (list string)) "every fault kind drawn"
    [ "crash"; "ctrl-partition"; "flap"; "head-crash"; "link-down"; "loss-burst" ]
    (List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) kinds []))

(* --- The chaos verbs execute from text --------------------------------- *)

(* A converged hybrid clique (8 ASes, members AS65002-4) with keepalives,
   reconnects and switch liveness. *)
let converged_hybrid () =
  let net =
    Framework.Network.create ~config:Framework.Config.failure_test ~seed:37
      (Framework.Chaos.default_spec ())
  in
  let conv = Framework.Convergence.attach net in
  Framework.Network.start net;
  Framework.Scenario.apply net (Framework.Scenario.Announce (asn 0, None));
  (match
     Framework.Convergence.wait_quiet ~quiet:(Engine.Time.sec 3)
       ~max_wait:(Engine.Time.sec 60) conv
   with
  | `Quiet _ -> ()
  | `Timeout _ -> Alcotest.fail "setup never converged");
  net

(* Schedule [lines], each "OFFSET VERB ARGS" with OFFSET in seconds from
   now, through the text format. *)
let schedule_text net lines =
  let now = Engine.Time.to_sec_f (Framework.Network.now net) in
  let text =
    String.concat "\n"
      (List.map
         (fun (offset, rest) -> Fmt.str "@%.6f %s" (now +. offset) rest)
         lines)
  in
  match Framework.Scenario.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok sc ->
    (match Framework.Scenario.validate net sc with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Framework.Scenario.schedule net (Framework.Scenario.steps sc)

let advance net s =
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.of_sec_f s))

let test_loss_burst_executes () =
  let net = converged_hybrid () in
  let a = asn 0 and b = asn 1 in
  let r = Option.get (Framework.Network.router net a) in
  schedule_text net
    [ (1.0, Fmt.str "loss-burst %a %a" Net.Asn.pp a Net.Asn.pp b);
      (12.0, Fmt.str "loss-heal %a %a" Net.Asn.pp a Net.Asn.pp b) ];
  advance net 2.0;
  Alcotest.(check bool) "session still up inside the hold time" true
    (Bgp.Router.peer_established r b);
  advance net 8.0;
  Alcotest.(check bool) "link still reports up" true (Framework.Network.link_up net a b);
  Alcotest.(check bool) "hold expiry dropped the session" false
    (Bgp.Router.peer_established r b);
  advance net 20.0;
  Alcotest.(check bool) "session back after the heal" true (Bgp.Router.peer_established r b)

(* Default config: the 500 ms session-down detection ties with the
   flap's 500 ms down time; the first fail's detection must still win
   the tie and drop the session. *)
let test_flap_tie_order () =
  let exp = Framework.Experiment.create ~seed:38 (Topology.Artificial.clique 3) in
  let net = Framework.Experiment.network exp in
  let r0 = Option.get (Framework.Network.router net (asn 0)) in
  Alcotest.(check bool) "session up before the flap" true (Bgp.Router.peer_established r0 (asn 1));
  schedule_text net [ (1.0, Fmt.str "flap %a %a 2" Net.Asn.pp (asn 0) Net.Asn.pp (asn 1)) ];
  advance net 1.6;
  Alcotest.(check bool) "first down bounced the session" false
    (Bgp.Router.peer_established r0 (asn 1));
  Alcotest.(check bool) "link back up" true (Framework.Network.link_up net (asn 0) (asn 1))

let fallback_active net member =
  Sdn.Switch.fallback_active (Option.get (Framework.Network.switch net member))

let test_ctrl_partition_executes () =
  let net = converged_hybrid () in
  let m = asn 3 in
  schedule_text net
    [ (1.0, Fmt.str "partition %a ctrl" Net.Asn.pp m);
      (10.0, Fmt.str "recover-ctrl %a" Net.Asn.pp m) ];
  advance net 8.0;
  Alcotest.(check bool) "control channel down" false (Framework.Network.ctrl_link_up net m);
  Alcotest.(check bool) "partitioned member fell back" true (fallback_active net m);
  advance net 20.0;
  Alcotest.(check bool) "control channel back" true (Framework.Network.ctrl_link_up net m)

let test_head_crash_executes () =
  let net = converged_hybrid () in
  let m = asn 2 in
  schedule_text net [ (1.0, "crash-head"); (10.0, "restart-head") ];
  advance net 8.0;
  Alcotest.(check bool) "head crash puts the member into fallback" true (fallback_active net m);
  advance net 20.0;
  Alcotest.(check bool) "head restart releases it" false (fallback_active net m)

let suite =
  [
    Alcotest.test_case "ordered execution" `Quick test_actions_execute_in_order;
    Alcotest.test_case "failure-domain verbs round trip" `Quick test_failure_domain_round_trip;
    Alcotest.test_case "bad failure-domain lines rejected" `Quick test_bad_failure_domain_lines;
    Alcotest.test_case "partition/flap/heal execute" `Quick test_partition_flap_heal_execute;
    Alcotest.test_case "link actions" `Quick test_link_actions;
    Alcotest.test_case "crash/restart actions" `Quick test_crash_restart_actions;
    Alcotest.test_case "text round trip" `Quick test_text_round_trip;
    Alcotest.test_case "missing targets rejected up front" `Quick test_missing_targets_rejected;
    Alcotest.test_case "chaos schedules round trip" `Quick test_chaos_schedules_round_trip;
    Alcotest.test_case "loss burst executes" `Quick test_loss_burst_executes;
    Alcotest.test_case "ctrl partition executes" `Quick test_ctrl_partition_executes;
    Alcotest.test_case "head crash executes" `Quick test_head_crash_executes;
    Alcotest.test_case "flap tie order" `Quick test_flap_tie_order;
  ]
