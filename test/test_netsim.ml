(* Net.Netsim: delivery, delays, link failure semantics, watchers. *)

open Engine
open Net

let setup () =
  let sim = Sim.create () in
  let net : string Netsim.t = Netsim.create sim in
  (sim, net)

(* Attach a started runtime node with [handler] as the receiver of [id]. *)
let receive sim net id handler =
  let n = Node.create ~kind:"test" sim ~name:(string_of_int id) in
  Node.start n;
  Netsim.attach net id (Node.port n ~handler)

let test_delivery_with_delay () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link ~delay:(Time.ms 7) net 1 2);
  let got = ref [] in
  receive sim net 2 (fun ~from msg -> got := (from, msg, Sim.now sim) :: !got);
  Alcotest.(check bool) "send accepted" true (Netsim.send net ~src:1 ~dst:2 "hello");
  ignore (Sim.run sim);
  match !got with
  | [ (from, msg, at) ] ->
    Alcotest.(check int) "sender" 1 from;
    Alcotest.(check string) "payload" "hello" msg;
    Alcotest.(check int) "delay applied" 7_000 (Time.to_us at)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let test_no_link_no_send () =
  let _, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  Alcotest.(check bool) "send refused" false (Netsim.send net ~src:1 ~dst:2 "x")

let test_down_link_refuses () =
  let _, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  let link = Netsim.add_link net 1 2 in
  Netsim.set_link_up net link false;
  Alcotest.(check bool) "send refused on down link" false (Netsim.send net ~src:1 ~dst:2 "x")

let test_inflight_dropped_on_failure () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  let link = Netsim.add_link ~delay:(Time.ms 10) net 1 2 in
  let got = ref 0 in
  receive sim net 2 (fun ~from:_ _ -> incr got);
  ignore (Netsim.send net ~src:1 ~dst:2 "doomed");
  (* Fail the link while the message is in flight. *)
  ignore (Sim.schedule_at sim (Time.ms 5) (fun () -> Netsim.set_link_up net link false));
  ignore (Sim.run sim);
  Alcotest.(check int) "message dropped" 0 !got;
  Alcotest.(check int) "drop counted" 1 (Netsim.drops net Netsim.Link_down)

let test_watchers_notified () =
  let _, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  let link = Netsim.add_link net 1 2 in
  let events = ref [] in
  Netsim.set_link_watcher net 1 (fun ~link:_ ~peer ~up -> events := (1, peer, up) :: !events);
  Netsim.set_link_watcher net 2 (fun ~link:_ ~peer ~up -> events := (2, peer, up) :: !events);
  Netsim.set_link_up net link false;
  Netsim.set_link_up net link false (* idempotent: no duplicate events *);
  Netsim.set_link_up net link true;
  let expected = [ (1, 2, false); (2, 1, false); (1, 2, true); (2, 1, true) ] in
  Alcotest.(check (list (triple int int bool))) "watcher events" expected (List.rev !events)

let test_lossy_link () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link ~loss:1.0 net 1 2);
  let got = ref 0 in
  receive sim net 2 (fun ~from:_ _ -> incr got);
  ignore (Netsim.send net ~src:1 ~dst:2 "lost");
  ignore (Sim.run sim);
  Alcotest.(check int) "total loss drops all" 0 !got;
  Alcotest.(check int) "counted" 1 (Netsim.drops net Netsim.Loss)

let test_duplicate_guards () =
  let _, net = setup () in
  Netsim.add_node net ~id:1;
  (match Netsim.add_node net ~id:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate node must raise");
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link net 1 2);
  match Netsim.add_link net 2 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate link must raise"

let prop_link_fifo =
  QCheck.Test.make ~name:"per-link delivery preserves send order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) small_int)
    (fun payloads ->
      let sim = Sim.create () in
      let net : int Netsim.t = Netsim.create sim in
      Netsim.add_node net ~id:1;
      Netsim.add_node net ~id:2;
      ignore (Netsim.add_link ~delay:(Time.ms 3) net 1 2);
      let got = ref [] in
      receive sim net 2 (fun ~from:_ msg -> got := msg :: !got);
      List.iter (fun payload -> ignore (Netsim.send net ~src:1 ~dst:2 payload)) payloads;
      ignore (Sim.run sim);
      List.rev !got = payloads)

(* --- Drop-reason accounting (net_messages_dropped_total{reason=...}) ---- *)

let test_drop_reason_link_down () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  let link = Netsim.add_link ~delay:(Time.ms 10) net 1 2 in
  receive sim net 2 (fun ~from:_ _ -> ());
  ignore (Netsim.send net ~src:1 ~dst:2 "doomed");
  ignore (Sim.schedule_at sim (Time.ms 5) (fun () -> Netsim.set_link_up net link false));
  ignore (Sim.run sim);
  Alcotest.(check int) "link_down counted" 1 (Netsim.drops net Netsim.Link_down);
  Alcotest.(check int) "no other reasons" 0 (Netsim.drops net Netsim.Loss)

let test_drop_reason_loss () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link ~loss:1.0 net 1 2);
  receive sim net 2 (fun ~from:_ _ -> ());
  ignore (Netsim.send net ~src:1 ~dst:2 "lost");
  ignore (Sim.run sim);
  Alcotest.(check int) "loss counted" 1 (Netsim.drops net Netsim.Loss)

let test_drop_reason_no_handler () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link net 1 2);
  ignore (Netsim.send net ~src:1 ~dst:2 "void");
  ignore (Sim.run sim);
  Alcotest.(check int) "no_handler counted" 1 (Netsim.drops net Netsim.No_handler)

let test_drop_reason_node_down () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link ~delay:(Time.ms 10) net 1 2);
  let got = ref 0 in
  let receiver = Node.create ~kind:"test" sim ~name:"b" in
  Node.start receiver;
  Netsim.attach net 2 (Node.port receiver ~handler:(fun ~from:_ _ -> incr got));
  Alcotest.(check bool) "attached node visible" true (Netsim.attached_node net 2 <> None);
  ignore (Netsim.send net ~src:1 ~dst:2 "too late");
  ignore (Sim.schedule_at sim (Time.ms 5) (fun () -> Node.crash receiver));
  ignore (Sim.run sim);
  Alcotest.(check int) "not processed" 0 !got;
  Alcotest.(check int) "node_down counted" 1 (Netsim.drops net Netsim.Node_down)

let test_drop_reason_metric_labels () =
  let sim, net = setup () in
  Netsim.add_node net ~id:1;
  Netsim.add_node net ~id:2;
  ignore (Netsim.add_link net 1 2);
  ignore (Netsim.send net ~src:1 ~dst:2 "void");
  ignore (Sim.run sim);
  let snap = Metrics.snapshot (Sim.metrics sim) ~at:(Sim.now sim) in
  Alcotest.(check (option (float 0.))) "labeled series exported" (Some 1.0)
    (Metrics.value snap ~labels:[ ("reason", "no_handler") ] "net_messages_dropped_total");
  (* the unlabeled aggregate keeps counting every reason *)
  Alcotest.(check (option (float 0.))) "aggregate series" (Some 1.0)
    (Metrics.value snap "net_messages_dropped_total")

let suite =
  [
    Alcotest.test_case "delivery with delay" `Quick test_delivery_with_delay;
    QCheck_alcotest.to_alcotest prop_link_fifo;
    Alcotest.test_case "no link refuses send" `Quick test_no_link_no_send;
    Alcotest.test_case "down link refuses send" `Quick test_down_link_refuses;
    Alcotest.test_case "in-flight drop on failure" `Quick test_inflight_dropped_on_failure;
    Alcotest.test_case "watchers notified once" `Quick test_watchers_notified;
    Alcotest.test_case "lossy link" `Quick test_lossy_link;
    Alcotest.test_case "duplicate guards" `Quick test_duplicate_guards;
    Alcotest.test_case "drop reason: link down" `Quick test_drop_reason_link_down;
    Alcotest.test_case "drop reason: loss" `Quick test_drop_reason_loss;
    Alcotest.test_case "drop reason: no handler" `Quick test_drop_reason_no_handler;
    Alcotest.test_case "drop reason: node down" `Quick test_drop_reason_node_down;
    Alcotest.test_case "drop reason: metric labels" `Quick test_drop_reason_metric_labels;
  ]
