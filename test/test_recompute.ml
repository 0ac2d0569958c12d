(* Cluster_ctl.Recompute: dirty marking, batching, zero-delay mode. *)

open Engine

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let setup delay =
  let sim = Sim.create () in
  let batches = ref [] in
  let r =
    Cluster_ctl.Recompute.create ~sim ~delay ~callback:(fun prefixes ->
        batches := (Sim.now sim, prefixes) :: !batches)
  in
  (sim, r, batches)

let test_zero_delay_immediate () =
  let _, r, batches = setup Time.zero in
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.0.0/24");
  Alcotest.(check int) "fired immediately" 1 (List.length !batches);
  Alcotest.(check int) "nothing pending" 0 (Cluster_ctl.Recompute.pending r)

let test_delayed_batching () =
  let sim, r, batches = setup (Time.sec 2) in
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.0.0/24");
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.1.0/24");
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.0.0/24") (* duplicate *);
  Alcotest.(check int) "not yet" 0 (List.length !batches);
  Alcotest.(check int) "pending deduplicated" 2 (Cluster_ctl.Recompute.pending r);
  ignore (Sim.run sim);
  (match !batches with
  | [ (at, prefixes) ] ->
    Alcotest.(check int) "fired at delay" 2_000_000 (Time.to_us at);
    Alcotest.(check int) "one batch of two" 2 (List.length prefixes)
  | _ -> Alcotest.fail "expected exactly one batch");
  Alcotest.(check int) "one callback call" 1 (List.length !batches);
  Alcotest.(check int) "three marks delivered as two prefixes" 2
    (List.fold_left (fun n (_, prefixes) -> n + List.length prefixes) 0 !batches)

let test_timer_not_postponed_by_later_marks () =
  let sim, r, batches = setup (Time.sec 2) in
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.0.0/24");
  ignore
    (Sim.schedule_at sim (Time.sec 1) (fun () ->
         Cluster_ctl.Recompute.mark_dirty r (p "100.64.1.0/24")));
  ignore (Sim.run sim);
  match List.rev !batches with
  | [ (at, prefixes) ] ->
    (* coalesced into the first deadline, not pushed out *)
    Alcotest.(check int) "first deadline kept" 2_000_000 (Time.to_us at);
    Alcotest.(check int) "both included" 2 (List.length prefixes)
  | _ -> Alcotest.fail "expected one batch"

let test_rearms_after_batch () =
  let sim, r, batches = setup (Time.sec 2) in
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.0.0/24");
  ignore (Sim.run sim);
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.1.0/24");
  ignore (Sim.run sim);
  Alcotest.(check int) "two batches" 2 (List.length !batches)

let test_flush_now () =
  let _, r, batches = setup (Time.sec 60) in
  Cluster_ctl.Recompute.mark_dirty r (p "100.64.0.0/24");
  Cluster_ctl.Recompute.flush_now r;
  Alcotest.(check int) "flushed without waiting" 1 (List.length !batches);
  (* a later empty flush is a no-op *)
  Cluster_ctl.Recompute.flush_now r;
  Alcotest.(check int) "empty flush no-op" 1 (List.length !batches)

let suite =
  [
    Alcotest.test_case "zero delay immediate" `Quick test_zero_delay_immediate;
    Alcotest.test_case "delayed batching + dedup" `Quick test_delayed_batching;
    Alcotest.test_case "deadline not postponed" `Quick test_timer_not_postponed_by_later_marks;
    Alcotest.test_case "re-arms after batch" `Quick test_rearms_after_batch;
    Alcotest.test_case "flush now" `Quick test_flush_now;
  ]
