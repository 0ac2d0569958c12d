(* Bgp.Collector: recording and timestamps. *)

open Engine

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let setup () =
  let sim = Sim.create () in
  let sent = ref [] in
  let collector =
    Bgp.Collector.create ~sim ~asn:(Net.Asn.of_int 64000) ~router_id:nh
      ~send:(fun ~dst msg ->
        sent := (dst, msg) :: !sent;
        true)
      ()
  in
  Bgp.Collector.add_peer collector ~peer_asn:(Net.Asn.of_int 65001) ~peer_node:1;
  (sim, collector, sent)

(* Each prefix's most recent update instant in the event log, ascending
   by prefix. *)
let last_updates collector =
  List.fold_left
    (fun acc e ->
      let prefix = e.Bgp.Collector.prefix in
      (prefix, e.Bgp.Collector.time) :: List.remove_assoc prefix acc)
    [] (Bgp.Collector.events collector)
  |> List.sort (fun (a, _) (b, _) -> Net.Ipv4.compare_prefix a b)

let announce_update prefix =
  Bgp.Message.update ~announced:[ (prefix, Bgp.Attrs.make ~next_hop:nh ()) ] ()

let test_open_autoresponse () =
  let _, collector, sent = setup () in
  Bgp.Collector.handle_message collector ~from:1
    (Bgp.Message.Open { asn = Net.Asn.of_int 65001; router_id = nh; hold_time = 0 });
  match !sent with
  | [ (1, Bgp.Message.Open _) ] -> ()
  | _ -> Alcotest.fail "collector must respond to OPEN with OPEN"

let test_records_events () =
  let sim, collector, _ = setup () in
  ignore
    (Sim.schedule_at sim (Time.ms 5) (fun () ->
         Bgp.Collector.handle_message collector ~from:1 (announce_update (p "100.64.0.0/24"))));
  ignore
    (Sim.schedule_at sim (Time.ms 9) (fun () ->
         Bgp.Collector.handle_message collector ~from:1
           (Bgp.Message.update ~withdrawn:[ p "100.64.0.0/24" ] ())));
  ignore (Sim.run sim);
  Alcotest.(check int) "two events" 2 (Bgp.Collector.event_count collector);
  (match Bgp.Collector.events collector with
  | [ e1; e2 ] ->
    Alcotest.(check int) "first at 5ms" 5_000 (Time.to_us e1.Bgp.Collector.time);
    Alcotest.(check bool) "first is announce" true
      (match e1.Bgp.Collector.action with Bgp.Collector.Announce _ -> true | _ -> false);
    Alcotest.(check bool) "second is withdraw" true
      (e2.Bgp.Collector.action = Bgp.Collector.Withdraw)
  | _ -> Alcotest.fail "expected 2 events");
  Alcotest.(check (list (pair string int))) "last update per prefix" [ ("100.64.0.0/24", 9_000) ]
    (List.map
       (fun (q, at) -> (Net.Ipv4.prefix_to_string q, Time.to_us at))
       (last_updates collector))

let test_per_prefix_queries () =
  let sim, collector, _ = setup () in
  ignore
    (Sim.schedule_at sim (Time.ms 1) (fun () ->
         Bgp.Collector.handle_message collector ~from:1 (announce_update (p "100.64.0.0/24"))));
  ignore
    (Sim.schedule_at sim (Time.ms 2) (fun () ->
         Bgp.Collector.handle_message collector ~from:1 (announce_update (p "100.64.1.0/24"))));
  ignore (Sim.run sim);
  let last prefix = List.assoc_opt prefix (last_updates collector) in
  Alcotest.(check int) "events for prefix" 1
    (List.length
       (List.filter
          (fun e -> Net.Ipv4.equal_prefix e.Bgp.Collector.prefix (p "100.64.0.0/24"))
          (Bgp.Collector.events collector)));
  Alcotest.(check (option int)) "last for prefix" (Some 1_000)
    (Option.map Time.to_us (last (p "100.64.0.0/24")));
  Alcotest.(check (option int)) "unknown prefix" None
    (Option.map Time.to_us (last (p "9.9.9.0/24")))

let test_unknown_peer_ignored () =
  let _, collector, _ = setup () in
  Bgp.Collector.handle_message collector ~from:42 (announce_update (p "100.64.0.0/24"));
  Alcotest.(check int) "ignored" 0 (Bgp.Collector.event_count collector)

(* A crash clears the log: a collector outage leaves a gap in the feed. *)
let test_clear () =
  let _, collector, _ = setup () in
  Bgp.Collector.handle_message collector ~from:1 (announce_update (p "100.64.0.0/24"));
  Engine.Node.crash (Bgp.Collector.node collector);
  Alcotest.(check int) "cleared" 0 (Bgp.Collector.event_count collector);
  Alcotest.(check int) "no events" 0 (List.length (Bgp.Collector.events collector))

let suite =
  [
    Alcotest.test_case "OPEN auto-response" `Quick test_open_autoresponse;
    Alcotest.test_case "records events" `Quick test_records_events;
    Alcotest.test_case "per-prefix queries" `Quick test_per_prefix_queries;
    Alcotest.test_case "unknown peer ignored" `Quick test_unknown_peer_ignored;
    Alcotest.test_case "clear" `Quick test_clear;
  ]
