(* Engine.Metrics, Engine.Sampler and Framework.Telemetry: primitive
   semantics, label canonicalization, snapshot immutability, exporter
   goldens, Prometheus round-trip, and the determinism guarantee (same
   seed => byte-identical exports). *)

open Engine

let test_counter_semantics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests_total" in
  Metrics.Counter.inc c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "inc + add" 5 (Metrics.Counter.value c);
  (match Metrics.Counter.add c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative counter increment must raise");
  Alcotest.(check int) "unchanged after rejected add" 5 (Metrics.Counter.value c)

let test_gauge_semantics () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "depth" in
  Metrics.Gauge.set g 3.5;
  Metrics.Gauge.add g (-1.5);
  Alcotest.(check (float 1e-9)) "set + add" 2.0 (Metrics.Gauge.value g)

let test_registration_idempotent_and_canonical () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("b", "2"); ("a", "1") ] "x_total" in
  let b = Metrics.counter m ~labels:[ ("a", "1"); ("b", "2") ] "x_total" in
  Metrics.Counter.inc a;
  Metrics.Counter.inc b;
  (* Label order does not matter: both registrations hit the same series. *)
  Alcotest.(check int) "same handle through either order" 2 (Metrics.Counter.value a);
  let snap = Metrics.snapshot m ~at:Time.zero in
  (* Query labels are canonicalized too: any order finds the series. *)
  (match Metrics.find_sample snap ~labels:[ ("b", "2"); ("a", "1") ] "x_total" with
  | Some s ->
    Alcotest.(check (list (pair string string)))
      "labels canonicalized (sorted by key)"
      [ ("a", "1"); ("b", "2") ]
      s.Metrics.labels
  | None -> Alcotest.fail "sample missing");
  (* The same series registered as a different kind is a programming error. *)
  match Metrics.gauge m ~labels:[ ("a", "1"); ("b", "2") ] "x_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

let test_snapshot_isolation () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c_total" in
  Metrics.Counter.inc c;
  let before = Metrics.snapshot m ~at:Time.zero in
  Metrics.Counter.add c 10;
  let after = Metrics.snapshot m ~at:(Time.ms 1) in
  Alcotest.(check (option (float 1e-9))) "old snapshot frozen" (Some 1.0)
    (Metrics.value before "c_total");
  Alcotest.(check (option (float 1e-9))) "new snapshot sees mutation" (Some 11.0)
    (Metrics.value after "c_total")

let test_on_collect () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "pulled" in
  let source = ref 0.0 in
  Metrics.on_collect m (fun () -> Metrics.Gauge.set g !source);
  source := 42.0;
  let snap = Metrics.snapshot m ~at:Time.zero in
  Alcotest.(check (option (float 1e-9))) "collect callback ran" (Some 42.0)
    (Metrics.value snap "pulled")

(* Registration is O(1) — every router and session registers one
   collector, so appending made construction quadratic in sessions — and
   a scrape still runs collectors in registration order. *)
let test_on_collect_scale () =
  let m = Metrics.create () in
  let count = 20_000 in
  let seen = ref [] in
  let collectors = Array.init count (fun i () -> seen := i :: !seen) in
  let before = Gc.minor_words () in
  Array.iter (Metrics.on_collect m) collectors;
  let per_collector = (Gc.minor_words () -. before) /. float_of_int count in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per registration <= 4" per_collector)
    true (per_collector <= 4.0);
  ignore (Metrics.snapshot m ~at:Time.zero);
  Alcotest.(check bool) "registration order" true (List.rev !seen = List.init count Fun.id)

(* A tiny fixed registry exercised against exact export text, so format
   drift is caught deliberately rather than discovered by downstream
   parsers. *)
let golden_snapshot () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"updates seen" ~labels:[ ("node", "AS65001") ] "upd_total" in
  Metrics.Counter.add c 7;
  let g = Metrics.gauge m "rib_routes" in
  Metrics.Gauge.set g 3.0;
  let conv = Metrics.gauge m ~labels:[ ("prefix", "10.0.0.0/8") ] "conv_seconds" in
  Metrics.Gauge.set conv 2.25;
  Metrics.snapshot m ~at:(Time.ms 1500)

let test_prometheus_golden () =
  Alcotest.(check string) "prometheus exposition"
    "# TYPE conv_seconds gauge\n\
     conv_seconds{prefix=\"10.0.0.0/8\"} 2.25\n\
     # TYPE rib_routes gauge\n\
     rib_routes 3\n\
     # HELP upd_total updates seen\n\
     # TYPE upd_total counter\n\
     upd_total{node=\"AS65001\"} 7\n"
    (Metrics.to_prometheus (golden_snapshot ()))

let test_jsonl_golden () =
  Alcotest.(check string) "jsonl rows"
    "{\"t_us\":1500000,\"metric\":\"conv_seconds\",\"labels\":{\"prefix\":\"10.0.0.0/8\"},\"type\":\"gauge\",\"value\":2.25}\n\
     {\"t_us\":1500000,\"metric\":\"rib_routes\",\"labels\":{},\"type\":\"gauge\",\"value\":3}\n\
     {\"t_us\":1500000,\"metric\":\"upd_total\",\"labels\":{\"node\":\"AS65001\"},\"type\":\"counter\",\"value\":7}\n"
    (Metrics.to_jsonl (golden_snapshot ()))

let test_csv_golden () =
  Alcotest.(check string) "csv rows"
    "t_us,metric,labels,type,value\n\
     1500000,conv_seconds,prefix=10.0.0.0/8,gauge,2.25\n\
     1500000,rib_routes,,gauge,3\n\
     1500000,upd_total,node=AS65001,counter,7\n"
    (Metrics.to_csv (golden_snapshot ()))

let test_prometheus_roundtrip () =
  let snap = golden_snapshot () in
  match Metrics.parse_prometheus (Metrics.to_prometheus snap) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check int) "sample count" 3 (List.length parsed);
    let find name labels =
      List.find_opt
        (fun p -> p.Metrics.p_name = name && p.Metrics.p_labels = labels)
        parsed
    in
    (match find "upd_total" [ ("node", "AS65001") ] with
    | Some p -> Alcotest.(check (float 1e-9)) "counter value survives" 7.0 p.Metrics.p_value
    | None -> Alcotest.fail "upd_total{node} missing after round-trip");
    (match find "conv_seconds" [ ("prefix", "10.0.0.0/8") ] with
    | Some p -> Alcotest.(check (float 1e-9)) "fractional gauge survives" 2.25 p.Metrics.p_value
    | None -> Alcotest.fail "conv_seconds{prefix} missing after round-trip")

(* The sampler must never keep the queue alive on its own, and must
   resume when new work arrives after a drain. *)
let test_sampler_dormant_and_resume () =
  let sim = Sim.create () in
  let seen = ref 0 in
  let sampler =
    Sampler.start sim ~interval:(Time.ms 10) ~on_sample:(fun _ -> incr seen)
  in
  ignore (Sim.schedule_at sim (Time.ms 25) ignore);
  (match Sim.run sim with
  | Sim.Exhausted -> ()
  | _ -> Alcotest.fail "sampler must not prevent queue exhaustion");
  let after_first = !seen in
  Alcotest.(check bool) "sampled during first phase" true (after_first >= 2);
  (* New work after the drain: the on_wake hook must re-arm sampling. *)
  ignore (Sim.schedule_after sim (Time.ms 30) ignore);
  ignore (Sim.run sim);
  Alcotest.(check bool) "resumed after wake" true (!seen > after_first);
  Sampler.stop sampler;
  ignore (Sim.schedule_after sim (Time.ms 30) ignore);
  let before = !seen in
  ignore (Sim.run sim);
  Alcotest.(check int) "stopped sampler stays quiet" before !seen

let test_sim_category_counters () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at ~category:"net.deliver" sim (Time.ms 1) ignore);
  ignore (Sim.schedule_at ~category:"net.deliver" sim (Time.ms 2) ignore);
  let h = Sim.schedule_at ~category:"bgp.process" sim (Time.ms 3) ignore in
  Sim.cancel h;
  ignore (Sim.run sim);
  let snap = Metrics.snapshot (Sim.metrics sim) ~at:(Sim.now sim) in
  let v ?labels name = Metrics.value snap ?labels name in
  Alcotest.(check (option (float 1e-9))) "scheduled{net.deliver}" (Some 2.0)
    (v ~labels:[ ("category", "net.deliver") ] "sim_events_scheduled_total");
  Alcotest.(check (option (float 1e-9))) "executed{net.deliver}" (Some 2.0)
    (v ~labels:[ ("category", "net.deliver") ] "sim_events_executed_total");
  Alcotest.(check (option (float 1e-9))) "cancelled reaped" (Some 1.0)
    (v "sim_events_cancelled_total")

(* End-to-end determinism: two whole-stack runs with the same seed must
   export byte-identical JSONL. *)
let test_same_seed_byte_identical () =
  let run () =
    let r =
      Framework.Experiments.clique_run ~n:6 ~sdn:2
        ~event:Framework.Experiments.Withdrawal ~seed:11
        ~config:Framework.Config.fast_test ()
    in
    Metrics.to_jsonl r.Framework.Experiments.metrics
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "export is non-trivial" true (String.length a > 1000);
  Alcotest.(check string) "byte-identical across identical seeds" a b

let test_telemetry_validate () =
  let snap = golden_snapshot () in
  (match Framework.Telemetry.validate Framework.Telemetry.Jsonl (Metrics.to_jsonl snap) with
  | Ok n -> Alcotest.(check int) "jsonl rows validated" 3 n
  | Error e -> Alcotest.fail e);
  (match
     Framework.Telemetry.validate Framework.Telemetry.Prometheus (Metrics.to_prometheus snap)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Framework.Telemetry.validate Framework.Telemetry.Csv (Metrics.to_csv snap) with
  | Ok n -> Alcotest.(check int) "csv rows validated" 3 n
  | Error e -> Alcotest.fail e);
  match Framework.Telemetry.validate Framework.Telemetry.Jsonl "{\"broken\":\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSONL must be rejected"

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "registration idempotent + canonical labels" `Quick
      test_registration_idempotent_and_canonical;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "on_collect pull gauges" `Quick test_on_collect;
    Alcotest.test_case "on_collect O(1), in order" `Quick test_on_collect_scale;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
    Alcotest.test_case "csv golden" `Quick test_csv_golden;
    Alcotest.test_case "prometheus round-trip" `Quick test_prometheus_roundtrip;
    Alcotest.test_case "sampler dormant + resume" `Quick test_sampler_dormant_and_resume;
    Alcotest.test_case "sim category counters" `Quick test_sim_category_counters;
    Alcotest.test_case "same seed, byte-identical export" `Quick
      test_same_seed_byte_identical;
    Alcotest.test_case "telemetry validators" `Quick test_telemetry_validate;
  ]
