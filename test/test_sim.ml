(* Engine.Sim and Engine.Timer: scheduling order, cancellation,
   quiescence, restartable timers. *)

open Engine

let test_fifo_same_instant () =
  let sim = Sim.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  ignore (Sim.schedule_at sim (Time.ms 5) (note "a"));
  ignore (Sim.schedule_at sim (Time.ms 5) (note "b"));
  ignore (Sim.schedule_at sim (Time.ms 5) (note "c"));
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "insertion order at same instant" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_time_order () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore (Sim.schedule_at sim (Time.ms 30) (fun () -> order := 30 :: !order));
  ignore (Sim.schedule_at sim (Time.ms 10) (fun () -> order := 10 :: !order));
  ignore (Sim.schedule_at sim (Time.ms 20) (fun () -> order := 20 :: !order));
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 30_000 (Time.to_us (Sim.now sim))

let test_cancellation () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim (Time.ms 1) (fun () -> fired := true) in
  Sim.cancel h;
  ignore (Sim.run sim);
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check bool) "handle reports cancelled" true (Sim.cancelled h)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule_at sim (Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore (Sim.schedule_after sim (Time.ms 1) (fun () -> log := "inner" :: !log))));
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "nested events run" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "two events executed" 2 (Sim.executed sim)

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim (Time.ms 10) (fun () -> ()));
  ignore (Sim.run sim);
  (match Sim.schedule_at sim (Time.ms 5) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheduling in the past must raise")

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule_at sim (Time.ms 10) (fun () -> incr fired));
  ignore (Sim.schedule_at sim (Time.ms 50) (fun () -> incr fired));
  (match Sim.run ~until:(Time.ms 20) sim with
  | Sim.Reached_time _ -> ()
  | Sim.Exhausted | Sim.Reached_limit -> Alcotest.fail "expected Reached_time");
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock advanced to limit" 20_000 (Time.to_us (Sim.now sim));
  ignore (Sim.run sim);
  Alcotest.(check int) "second fires later" 2 !fired

let test_max_events () =
  let sim = Sim.create () in
  for i = 1 to 10 do
    ignore (Sim.schedule_at sim (Time.ms i) (fun () -> ()))
  done;
  (match Sim.run ~max_events:3 sim with
  | Sim.Reached_limit -> ()
  | Sim.Exhausted | Sim.Reached_time _ -> Alcotest.fail "expected Reached_limit");
  Alcotest.(check int) "executed exactly 3" 3 (Sim.executed sim)

(* Timer semantics *)

let test_timer_fires_once () =
  let sim = Sim.create () in
  let fires = ref 0 in
  let timer = Timer.create sim ~callback:(fun () -> incr fires) in
  Timer.start timer (Time.ms 10);
  ignore (Sim.run sim);
  Alcotest.(check int) "one fire" 1 !fires;
  Alcotest.(check bool) "idle after fire" false (Timer.is_armed timer)

let test_timer_restart_replaces () =
  let sim = Sim.create () in
  let fired_at = ref [] in
  let timer = ref None in
  let t =
    Timer.create sim ~callback:(fun () ->
        fired_at := Sim.now sim :: !fired_at;
        ignore timer)
  in
  timer := Some t;
  Timer.start t (Time.ms 10);
  Timer.start t (Time.ms 30);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "restart postpones" [ 30_000 ]
    (List.map Time.to_us (List.rev !fired_at))

let test_timer_start_if_idle_coalesces () =
  let sim = Sim.create () in
  let fires = ref 0 in
  let t = Timer.create sim ~callback:(fun () -> incr fires) in
  Timer.start_if_idle t (Time.ms 10);
  Timer.start_if_idle t (Time.ms 50);
  ignore (Sim.run sim);
  Alcotest.(check int) "coalesced to one" 1 !fires;
  Alcotest.(check int) "fired at first deadline" 10_000 (Time.to_us (Sim.now sim))

let test_timer_cancel () =
  let sim = Sim.create () in
  let fires = ref 0 in
  let t = Timer.create sim ~callback:(fun () -> incr fires) in
  Timer.start t (Time.ms 10);
  Timer.cancel t;
  ignore (Sim.run sim);
  Alcotest.(check int) "cancelled" 0 !fires

(* Scheduling allocation fence: a schedule plus its execution allocates
   the event record (7 words) and nothing else — no closure to resolve
   the category (two per event cost 11 words more), no causal-store
   word once a ring has wrapped. *)
let noop () = ()

let words_per_event sim n =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sim.schedule_after ~category:"tick" sim (Time.us 1) noop);
    ignore (Sim.step sim)
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_schedule_allocation_fence () =
  List.iter
    (fun (name, causal, warmup) ->
      let sim = Sim.create ~causal () in
      ignore (words_per_event sim warmup);
      let words = words_per_event sim 1_000 in
      if Causal.enabled (Sim.causal sim) && Causal.total (Sim.causal sim) <= 4096 then
        Alcotest.failf "%s: the ring has not wrapped" name;
      if words > 7.5 then
        Alcotest.failf "%s: %.2f minor words per scheduled and executed event (bound 7.5)" name
          words)
    [ ("Disabled", Causal.Disabled, 10); ("Ring 4096, wrapped", Causal.Ring 4096, 5_000) ]

let suite =
  [
    Alcotest.test_case "FIFO at same instant" `Quick test_fifo_same_instant;
    Alcotest.test_case "time ordering" `Quick test_time_order;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "max events" `Quick test_max_events;
    Alcotest.test_case "timer fires once" `Quick test_timer_fires_once;
    Alcotest.test_case "timer restart" `Quick test_timer_restart_replaces;
    Alcotest.test_case "timer start_if_idle" `Quick test_timer_start_if_idle_coalesces;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "schedule allocation fence" `Quick test_schedule_allocation_fence;
  ]
