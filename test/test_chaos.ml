(* Framework.Chaos: campaign determinism, the invariant oracle's teeth,
   graceful degradation vs. blackholing, and schedule minimization. *)

let asn = Topology.Artificial.asn

let quiet_cfg = Framework.Config.failure_test

(* A converged hybrid clique on the chaos engine's own default spec. *)
let converged_net ?(config = quiet_cfg) ?(seed = 7) () =
  let net = Framework.Network.create ~config ~seed (Framework.Chaos.default_spec ()) in
  let conv = Framework.Convergence.attach net in
  Framework.Network.start net;
  let plan = Framework.Network.plan net in
  List.iter
    (fun a -> Framework.Network.originate net a (plan.Framework.Addressing.origin_prefix a))
    [ asn 0; asn 1 ];
  (match
     Framework.Convergence.wait_quiet ~quiet:(Engine.Time.sec 3)
       ~max_wait:(Engine.Time.sec 60) conv
   with
  | `Quiet _ -> ()
  | `Timeout _ -> Alcotest.fail "setup never converged");
  (net, conv)

(* --- Campaign determinism ----------------------------------------------- *)

let test_campaign_deterministic () =
  let campaign () = Framework.Chaos.run_campaign ~seed:2014 ~runs:50 () in
  let a = campaign () and b = campaign () in
  Alcotest.(check string) "same seed, same campaign digest"
    a.Framework.Chaos.campaign_digest b.Framework.Chaos.campaign_digest;
  Alcotest.(check int) "zero violating runs" 0
    (List.length
       (List.filter
          (fun (r : Framework.Chaos.run_result) -> r.Framework.Chaos.violations <> [])
          a.Framework.Chaos.results));
  Alcotest.(check bool) "every run quiesced" true
    (List.for_all
       (fun (r : Framework.Chaos.run_result) -> r.Framework.Chaos.quiesced)
       a.Framework.Chaos.results);
  let c = Framework.Chaos.run_campaign ~seed:2015 ~runs:50 () in
  Alcotest.(check bool) "different seed, different campaign" true
    (a.Framework.Chaos.campaign_digest <> c.Framework.Chaos.campaign_digest)

let test_schedules_vary_and_heal () =
  let rng = Engine.Rng.create 99 in
  let spec = Framework.Chaos.default_spec () in
  let schedules = List.init 20 (Framework.Chaos.generate ~spec ~rng) in
  Alcotest.(check bool) "every schedule injects at least one fault" true
    (List.for_all
       (fun (s : Framework.Chaos.schedule) -> s.Framework.Chaos.events <> [])
       schedules);
  Alcotest.(check bool) "every fault heals after injection" true
    (List.for_all
       (fun (s : Framework.Chaos.schedule) ->
         List.for_all
           (fun (e : Framework.Chaos.event) ->
             Engine.Time.(e.Framework.Chaos.heal_at > e.Framework.Chaos.at))
           s.Framework.Chaos.events)
       schedules);
  (* not all schedules draw the same fault mix *)
  let rendered =
    List.map
      (fun (s : Framework.Chaos.schedule) ->
        Fmt.str "%a" Fmt.(list Framework.Chaos.pp_event) s.Framework.Chaos.events)
      schedules
  in
  Alcotest.(check bool) "schedules differ" true
    (List.length (List.sort_uniq String.compare rendered) > 10)

(* --- The oracle has teeth ----------------------------------------------- *)

let test_oracle_catches_stale_flow_rule () =
  let net, _ = converged_net () in
  Alcotest.(check (list string)) "clean before injection" []
    (List.map
       (fun (v : Framework.Chaos.violation) -> v.Framework.Chaos.invariant)
       (Framework.Chaos.check_invariants net));
  (* Crash a legacy AS, then plant a rule on a live member switch that
     still forwards to the corpse — the stale-flow bug the oracle exists
     to catch. *)
  let victim = asn 7 in
  Framework.Network.crash_node net victim;
  let sw = Option.get (Framework.Network.switch net (asn 2)) in
  Sdn.Flow_table.add (Sdn.Switch.table sw)
    (Sdn.Flow.make
       ~match_prefix:(Option.get (Net.Ipv4.prefix_of_string "100.99.0.0/24"))
       (Sdn.Flow.Output (Net.Asn.to_int victim)));
  let violations = Framework.Chaos.check_invariants net in
  Alcotest.(check bool) "stale flow rule detected" true
    (List.exists
       (fun (v : Framework.Chaos.violation) ->
         v.Framework.Chaos.invariant = "no-stale-flow-rule")
       violations)

(* Two member switches forwarding AS 0's prefix at each other (each plant
   replaces the switch's rule for that prefix): the loop must surface
   through the forwarding verifier. *)
let test_oracle_catches_forwarding_loop () =
  let net, _ = converged_net () in
  let prefix = (Framework.Network.plan net).Framework.Addressing.origin_prefix (asn 0) in
  let plant from_ to_ =
    let sw = Option.get (Framework.Network.switch net from_) in
    Sdn.Flow_table.add (Sdn.Switch.table sw)
      (Sdn.Flow.make ~match_prefix:prefix (Sdn.Flow.Output (Net.Asn.to_int to_)))
  in
  plant (asn 2) (asn 3);
  plant (asn 3) (asn 2);
  let violations = Framework.Chaos.check_invariants net in
  Alcotest.(check bool) "forwarding loop detected" true
    (List.exists
       (fun (v : Framework.Chaos.violation) -> v.Framework.Chaos.invariant = "fwd-verify-loop")
       violations)

(* --- Graceful degradation vs. blackholing ------------------------------- *)

let reach_during_head_outage ~fallback =
  let config =
    if fallback then quiet_cfg else { quiet_cfg with Framework.Config.switch_liveness = None }
  in
  let net, _ = converged_net ~config () in
  let plan = Framework.Network.plan net in
  Framework.Network.crash_controller net;
  (* announced while the head is down: only the legacy plane can carry it *)
  Framework.Network.originate net (asn 5) (plan.Framework.Addressing.origin_prefix (asn 5));
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 8));
  Framework.Monitor.reachable net ~src:(asn 2) ~dst:(asn 5)

let test_fallback_retains_reachability () =
  Alcotest.(check bool) "member reaches the mid-outage announcement" true
    (reach_during_head_outage ~fallback:true)

let test_no_fallback_blackholes () =
  Alcotest.(check bool) "member blackholes without fallback" false
    (reach_during_head_outage ~fallback:false)

(* --- The head-crash drill ------------------------------------------------

   Crash the cluster head mid-run on an 8-AS clique with 4 members and
   keep routing changing while it is down.  With [fallback] the member
   switches detect the dead controller via echo liveness and degrade
   onto a legacy default route, so they retain reachability — including
   to a prefix announced during the outage.  Without it they blackhole
   unknown traffic until the restart.  Either way the restart must
   resync to the state of a run that never crashed. *)

let drill ~fallback () =
  let check what ok = Alcotest.(check bool) what true ok in
  let wait_quiet what conv =
    match
      Framework.Convergence.wait_quiet ~quiet:(Engine.Time.sec 3)
        ~max_wait:(Engine.Time.sec 120) conv
    with
    | `Quiet _ -> ()
    | `Timeout _ -> Alcotest.failf "%s: control plane never went quiet" what
  in
  let config =
    if fallback then quiet_cfg else { quiet_cfg with Framework.Config.switch_liveness = None }
  in
  let n = 8 in
  let spec =
    let clique = Topology.Artificial.clique n in
    Topology.Spec.with_sdn clique
      (List.filteri (fun i _ -> i >= n - 4) (Topology.Spec.asns clique))
  in
  let origin = asn 0 and origin2 = asn 1 and member = asn (n - 1) in
  let fresh () =
    let net = Framework.Network.create ~config ~seed:2014 spec in
    let conv = Framework.Convergence.attach net in
    Framework.Network.start net;
    (net, conv)
  in
  let net, conv = fresh () in
  let apply = Framework.Scenario.apply net in
  let advance s =
    Framework.Network.run_until net
      (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec s))
  in
  let reach dst = Framework.Monitor.reachable net ~src:member ~dst in
  let fallback_active () =
    Sdn.Switch.fallback_active (Option.get (Framework.Network.switch net member))
  in
  apply (Framework.Scenario.Announce (origin, None));
  wait_quiet "initial convergence" conv;
  check "member reaches the origin after initial convergence" (reach origin);
  (* every relay toward the dead head is refused at the fabric *)
  apply Framework.Scenario.Crash_head;
  apply (Framework.Scenario.Announce (origin2, None));
  advance 8;
  check "deliveries to the dead head are dropped as node_down"
    (Net.Netsim.drops (Framework.Network.fabric net) Net.Netsim.Node_down > 0);
  if fallback then begin
    check "member switch degraded onto its legacy fallback" (fallback_active ());
    check "member keeps reaching the origin while the head is down" (reach origin);
    check "member reaches the route announced during the outage" (reach origin2)
  end
  else begin
    check "no fallback without switch liveness" (not (fallback_active ()));
    check "the mid-outage announcement blackholes at the member" (not (reach origin2))
  end;
  (* The speaker's NOTIFICATION-then-OPEN resync pulls external routes
     back in; the controller reinstalls rules and releases the switches
     with RESYNC_DONE.  Let the handshake begin before asking for quiet. *)
  apply Framework.Scenario.Restart_head;
  advance 1;
  wait_quiet "post-restart reconvergence" conv;
  check "member reaches the origin after the restart" (reach origin);
  check "member learned the route announced during the outage" (reach origin2);
  check "RESYNC_DONE released the member from fallback" (not (fallback_active ()));
  let baseline =
    let net', conv' = fresh () in
    Framework.Scenario.apply net' (Framework.Scenario.Announce (origin, None));
    Framework.Scenario.apply net' (Framework.Scenario.Announce (origin2, None));
    wait_quiet "baseline convergence" conv';
    Framework.Chaos.render_state net'
  in
  Alcotest.(check string) "post-resync state matches a never-crashed run" baseline
    (Framework.Chaos.render_state net);
  if fallback then begin
    (* past the flow hard timeout, so expiry and reinstallation are exported *)
    advance 50;
    let snap =
      Engine.Metrics.snapshot
        (Engine.Sim.metrics (Framework.Network.sim net))
        ~at:(Framework.Network.now net)
    in
    match Engine.Metrics.parse_prometheus (Engine.Metrics.to_prometheus snap) with
    | Error e -> Alcotest.failf "metrics export does not parse: %s" e
    | Ok samples ->
      List.iter
        (fun name ->
          check (name ^ " exported")
            (List.exists (fun s -> s.Engine.Metrics.p_name = name) samples))
        [
          "node_lifecycle_transitions_total";
          "net_messages_dropped_total";
          "bgp_session_state";
          "bgp_hold_expirations_total";
          "controller_failovers_total";
          "flow_rules_expired_total";
        ]
  end

(* --- Minimization ------------------------------------------------------- *)

let test_minimize_keeps_passing_schedule () =
  let rng = Engine.Rng.create 3 in
  let schedule = Framework.Chaos.generate ~spec:(Framework.Chaos.default_spec ()) ~rng 0 in
  let result = Framework.Chaos.execute ~seed:2014 schedule in
  Alcotest.(check (list string)) "schedule passes" []
    (List.map
       (fun (v : Framework.Chaos.violation) -> v.Framework.Chaos.detail)
       result.Framework.Chaos.violations);
  let minimized = Framework.Chaos.minimize ~seed:2014 schedule in
  Alcotest.(check int) "passing schedule left untouched"
    (List.length schedule.Framework.Chaos.events)
    (List.length minimized.Framework.Chaos.events)

let suite =
  [
    Alcotest.test_case "50-run campaign deterministic" `Slow test_campaign_deterministic;
    Alcotest.test_case "schedules vary and always heal" `Quick test_schedules_vary_and_heal;
    Alcotest.test_case "oracle catches a stale flow rule" `Quick test_oracle_catches_stale_flow_rule;
    Alcotest.test_case "oracle catches a forwarding loop" `Quick
      test_oracle_catches_forwarding_loop;
    Alcotest.test_case "fallback retains reachability" `Quick test_fallback_retains_reachability;
    Alcotest.test_case "no-fallback blackholes" `Quick test_no_fallback_blackholes;
    Alcotest.test_case "minimize keeps a passing schedule" `Quick test_minimize_keeps_passing_schedule;
    Alcotest.test_case "head-crash drill with fallback" `Quick (drill ~fallback:true);
    Alcotest.test_case "head-crash drill without fallback" `Quick (drill ~fallback:false);
  ]
