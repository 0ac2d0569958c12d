(* Engine.Node actor runtime: lifecycle, port delivery, epoch guards,
   owned timers, and component crash/restart through the framework. *)

open Engine

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

(* --- Lifecycle ---------------------------------------------------------- *)

let test_lifecycle_and_hooks () =
  let sim = Sim.create ~seed:1 () in
  let n = Node.create ~kind:"test" sim ~name:"n0" in
  let log = ref [] in
  Node.on_start n (fun ~first -> log := (if first then "start-first" else "start") :: !log);
  Node.on_crash n (fun () -> log := "crash" :: !log);
  Alcotest.(check bool) "created, not up" false (Node.is_up n);
  Node.start n;
  Alcotest.(check bool) "up after start" true (Node.is_up n);
  Alcotest.(check int) "epoch 0" 0 (Node.epoch n);
  Node.start n;
  (* idempotent *)
  Node.crash n;
  Alcotest.(check bool) "down after crash" false (Node.is_up n);
  Alcotest.(check int) "epoch bumped" 1 (Node.epoch n);
  Alcotest.(check int) "crash counted" 1 (Node.crashes n);
  Node.crash n;
  (* no-op while down *)
  Alcotest.(check int) "crash idempotent while down" 1 (Node.crashes n);
  Node.restart n;
  Alcotest.(check bool) "up after restart" true (Node.is_up n);
  Alcotest.(check (list string)) "hook order"
    [ "start-first"; "crash"; "start" ]
    (List.rev !log)

let test_epoch_guard () =
  let sim = Sim.create ~seed:2 () in
  let n = Node.create sim ~name:"g" in
  Node.start n;
  let fired = ref [] in
  Node.schedule_after n (Time.ms 3) (fun () -> fired := "before" :: !fired);
  Node.schedule_after n (Time.ms 10) (fun () -> fired := "stale" :: !fired);
  ignore (Sim.schedule_at sim (Time.ms 5) (fun () -> Node.crash n));
  ignore (Sim.schedule_at sim (Time.ms 6) (fun () -> Node.restart n));
  (* scheduled before the crash -> voided by the epoch bump, even though
     the node is up again when the event fires *)
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "pre-crash event fired, stale one voided" [ "before" ]
    (List.rev !fired);
  Node.schedule_after n (Time.ms 1) (fun () -> fired := "fresh" :: !fired);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "post-restart scheduling works" [ "before"; "fresh" ]
    (List.rev !fired)

(* A raising handler must not wedge the node: the exception propagates to
   the caller and the node accepts the next message.  A down node refuses
   deliveries without calling the handler. *)
let test_raising_handler () =
  let sim = Sim.create ~seed:4 () in
  let n = Node.create sim ~name:"raise" in
  Node.start n;
  let seen = ref [] in
  let handler ~from:_ msg =
    seen := msg :: !seen;
    if msg = "boom" then failwith "handler failure"
  in
  let p = Node.port n ~handler in
  (match Node.deliver p ~from:0 "boom" with
  | _ -> Alcotest.fail "the handler's exception must propagate"
  | exception Failure _ -> ());
  Alcotest.(check bool) "still accepting" true (Node.deliver p ~from:0 "next");
  Alcotest.(check (list string)) "both handled" [ "boom"; "next" ] (List.rev !seen);
  Node.crash n;
  Alcotest.(check bool) "down node refuses" false (Node.deliver p ~from:0 "x");
  Alcotest.(check (list string)) "refused message not handled" [ "boom"; "next" ]
    (List.rev !seen)

let test_crash_cancels_owned_timers () =
  let sim = Sim.create ~seed:4 () in
  let n = Node.create sim ~name:"t" in
  Node.start n;
  let fired = ref false in
  let tm = Node.timer n ~callback:(fun () -> fired := true) in
  Timer.start tm (Time.ms 10);
  ignore (Sim.schedule_at sim (Time.ms 5) (fun () -> Node.crash n));
  ignore (Sim.run sim);
  Alcotest.(check bool) "timer cancelled by crash" false !fired;
  Alcotest.(check bool) "disarmed" false (Timer.is_armed tm)

(* --- Component crash/restart through the framework ---------------------- *)

let test_router_crash_restart_reconverges () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:11 (Topology.Artificial.clique 4) in
  let net = Framework.Experiment.network exp in
  let prefix = Framework.Experiment.announce exp (asn 0) in
  ignore (Framework.Experiment.settle exp);
  let r1 = Option.get (Framework.Network.router net (asn 1)) in
  Alcotest.(check bool) "route present pre-crash" true (Bgp.Router.best r1 prefix <> None);
  Framework.Network.crash_node net (asn 1);
  Alcotest.(check bool) "volatile RIB lost" true (Bgp.Router.loc_entries r1 = []);
  let host0 = (Framework.Network.plan net).Framework.Addressing.host_addr (asn 0) in
  Alcotest.(check bool) "FIB cleared with the crash" true
    (Framework.Network.forwarding_at net (asn 1) host0 = Framework.Network.No_route);
  Framework.Network.restart_node net (asn 1);
  ignore (Framework.Experiment.settle exp);
  Alcotest.(check bool) "session re-established" true
    (Bgp.Router.peer_established r1 (asn 0));
  Alcotest.(check bool) "route relearned" true (Bgp.Router.best r1 prefix <> None);
  Alcotest.(check bool) "FIB repopulated" true
    (Framework.Network.forwarding_at net (asn 1) host0 <> Framework.Network.No_route)

let hybrid_spec n members =
  let spec = Topology.Artificial.clique n in
  let asns = Topology.Spec.asns spec in
  Topology.Spec.with_sdn spec (List.filteri (fun i _ -> i >= n - members) asns)

let test_controller_crash_restart_reconverges () =
  let exp = Framework.Experiment.create ~config:cfg ~seed:12 (hybrid_spec 6 3) in
  let net = Framework.Experiment.network exp in
  let prefix = Framework.Experiment.announce exp (asn 0) in
  ignore (Framework.Experiment.settle exp);
  let member = asn 5 in
  Alcotest.(check bool) "member reachable pre-crash" true
    (Framework.Experiment.reachable exp ~src:member ~dst:(asn 0));
  Framework.Network.crash_controller net;
  let ctrl = Option.get (Framework.Network.controller net) in
  Alcotest.(check bool) "controller RIB lost" true
    (Cluster_ctl.Controller.rib_routes ctrl prefix = []);
  Framework.Network.restart_controller net;
  ignore (Framework.Experiment.settle exp);
  Alcotest.(check bool) "routes back after cluster-head restart" true
    (Cluster_ctl.Controller.rib_routes ctrl prefix <> []);
  Alcotest.(check bool) "member reachable again" true
    (Framework.Experiment.reachable exp ~src:member ~dst:(asn 0))

let suite =
  [
    Alcotest.test_case "lifecycle and hooks" `Quick test_lifecycle_and_hooks;
    Alcotest.test_case "epoch guard" `Quick test_epoch_guard;
    Alcotest.test_case "raising handler" `Quick test_raising_handler;
    Alcotest.test_case "crash cancels owned timers" `Quick test_crash_cancels_owned_timers;
    Alcotest.test_case "router crash/restart reconverges" `Quick
      test_router_crash_restart_reconverges;
    Alcotest.test_case "controller crash/restart reconverges" `Quick
      test_controller_crash_restart_reconverges;
  ]
