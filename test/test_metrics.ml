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

(* Label values are arbitrary bytes: the exporter escapes backslash,
   double quote and newline, the parser reads those three escapes, and
   every other byte (tabs, UTF-8, control bytes) survives verbatim. *)
let any_byte_string = QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12))

let prop_label_roundtrip =
  let keys = [ "node"; "peer"; "prefix" ] in
  QCheck.Test.make ~name:"label values round-trip through prometheus text" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (list (pair string string)) int)
       QCheck.Gen.(
         pair
           (map
              (List.mapi (fun i v -> (List.nth keys i, v)))
              (list_size (int_range 1 3) any_byte_string))
           (int_bound 1000)))
    (fun (labels, v) ->
      let m = Metrics.create () in
      Metrics.Counter.add (Metrics.counter m ~labels "x_total") v;
      match Metrics.parse_prometheus (Metrics.to_prometheus (Metrics.snapshot m ~at:Time.zero)) with
      | Ok [ p ] ->
        p.Metrics.p_name = "x_total" && p.Metrics.p_labels = labels
        && p.Metrics.p_value = float_of_int v
      | Ok _ | Error _ -> false)

let test_label_escapes () =
  let m = Metrics.create () in
  ignore (Metrics.gauge m ~labels:[ ("a", "a\tb"); ("b", "caf\xc3\xa9"); ("c", "q\"\\\n") ] "g");
  Alcotest.(check string) "three escapes, other bytes raw"
    "# TYPE g gauge\ng{a=\"a\tb\",b=\"caf\xc3\xa9\",c=\"q\\\"\\\\\\n\"} 0\n"
    (Metrics.to_prometheus (Metrics.snapshot m ~at:Time.zero))

(* Export order does not depend on registration order: random series
   (names sharing prefixes, 0-3 labels given in any order, repeats)
   registered in two shuffles of the same list export the same text, and
   every repeat registration returns the handle of the first. *)
type handle = C of Metrics.Counter.t | G of Metrics.Gauge.t

let series_gen =
  QCheck.Gen.(
    let name = oneofl [ "a"; "a_b"; "ab"; "a_total"; "b"; "b_"; "z_gauge" ] in
    let value = oneofl [ "1"; "10"; "2"; "AS65001"; "AS6500"; "x,y"; "" ] in
    let labels =
      map
        (fun (n, (x, y, z)) ->
          List.filteri (fun i _ -> i < n) [ ("k", x); ("k2", y); ("a", z) ])
        (pair (int_bound 3) (triple value value value))
    in
    triple name labels (int_bound 9))

let prop_export_order =
  QCheck.Test.make ~name:"export order independent of registration order" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list (triple string (list (pair string string)) int))
       QCheck.Gen.(list_size (int_range 1 40) series_gen))
    (fun specs ->
      let shuffle seed l =
        let st = Random.State.make [| seed |] in
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
      in
      let build order =
        let m = Metrics.create () in
        let seen = Hashtbl.create 16 in
        let same =
          List.for_all
            (fun (i, (name, labels, v)) ->
              (* the kind is a function of the name, so repeats never clash *)
              let h =
                if String.ends_with ~suffix:"gauge" name || name = "b" then begin
                  let g = Metrics.gauge m ~labels:(shuffle i labels) name in
                  Metrics.Gauge.add g (float_of_int v);
                  G g
                end
                else begin
                  let c = Metrics.counter m ~labels:(shuffle i labels) name in
                  Metrics.Counter.add c v;
                  C c
                end
              in
              let key = (name, List.sort compare labels) in
              match (Hashtbl.find_opt seen key, h) with
              | None, _ -> Hashtbl.replace seen key h; true
              | Some (C c), C c' -> c == c'
              | Some (G g), G g' -> g == g'
              | Some _, _ -> false)
            order
        in
        let snap = Metrics.snapshot m ~at:(Time.ms 5) in
        (same, Metrics.to_prometheus snap, Metrics.to_jsonl snap, Metrics.to_csv snap)
      in
      let indexed = List.mapi (fun i s -> (i, s)) specs in
      let same_a, prom_a, jsonl_a, csv_a = build indexed in
      let same_b, prom_b, jsonl_b, csv_b = build (shuffle (List.length specs) indexed) in
      (* samples come in byte order of the rendered [name{k="v",...}] *)
      let rendered =
        List.filter_map
          (fun line ->
            if line = "" || line.[0] = '#' then None
            else Some (String.sub line 0 (String.rindex line ' ')))
          (String.split_on_char '\n' prom_a)
      in
      same_a && same_b && List.sort_uniq String.compare rendered = rendered
      && prom_a = prom_b && jsonl_a = jsonl_b && csv_a = csv_b)

(* Construction fence: a re-lookup hashes the name and labels and formats
   nothing (formatting the key cost 895 words), and building a 16-AS
   clique makes no registry call per peering (393,852 words while every
   peer registered a gauge and every lookup formatted its key). *)
let test_construction_words () =
  let m = Metrics.create () in
  let labels = [ ("node", "AS65001"); ("peer", "AS65002") ] in
  let g = Metrics.gauge m ~labels "bgp_session_state" in
  List.iter
    (fun labels ->
      let before = Gc.minor_words () in
      let g' = Sys.opaque_identity (Metrics.gauge m ~labels "bgp_session_state") in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "same handle" true (g == g');
      Alcotest.(check bool) (Fmt.str "%.0f minor words per re-lookup <= 64" words) true (words <= 64.0))
    [ labels; List.rev labels ];
  (* Minor words of one [Network.create] (after a first, warming one):
     about 52k on clique:16 and 709k on the benchmark's 500-AS CAIDA
     world while every router registered its nine series up front, every
     peer added copied the sorted peer array and each AS filtered the
     whole link list for its neighbors; about 25.6k and 322k once the
     network was built from the spec's topology index with series
     registered on the first snapshot; 25,067 and 305,190 once a FIB
     made its prefix-length counts on its first insert.  Each bound is
     that reading +25%. *)
  let create_words spec =
    let create () = Framework.Network.create ~config:Framework.Config.default ~seed:7 spec in
    ignore (create ());
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (create ()));
    Gc.minor_words () -. before
  in
  List.iter
    (fun (name, spec, bound) ->
      let words = create_words spec in
      Alcotest.(check bool)
        (Fmt.str "%.0f minor words per %s create <= %.0f" words name bound)
        true (words <= bound))
    [
      ( "CAIDA 5/40/455 (seed 7)",
        Topology.Caida.generate ~tier1:5 ~tier2:40 ~stubs:455 (Rng.create 7),
        381_500.0 );
      ("clique:16", Topology.Artificial.clique 16, 31_350.0);
    ]

(* Export-path fence: a fixed CAIDA world at the benchmark's smoke size
   (3/8/40 ASes, 30 load prefixes) loaded and then withdrawn, bounded in
   minor words per Loc-RIB best change.  It measured about 304 while each
   peer's pending changes were persistent maps beside a router-wide
   Adj-RIB-Out, 172 with one outbound table per peer, and 80 once an
   UPDATE allocated only what it stores (in-place decisions, a boolean
   export predicate, no per-UPDATE tables); it reads about 70 with the
   peers' Adj-RIB-Outs derived instead of stored.  The hybrid twin
   centralizes the 6 top-degree ASes (the benchmark's smoke hybrid
   size): 279 words, then 177, then 133 to 137 once the speaker's
   sessions derived theirs too (the weak intern set makes it vary with
   GC timing). *)
let export_words_per_change ~sdn =
  let tier1, tier2, stubs = (3, 8, 40) in
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Rng.create 7) in
  let stub_arr = Array.of_list (Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs) in
  let spec =
    if sdn = 0 then spec
    else
      Topology.Spec.with_sdn spec
        (Framework.Experiments.choose_members ~spec ~k:sdn
           ~placement:Framework.Experiments.Top_degree ~origin:stub_arr.(0) ~seed:7)
  in
  let config =
    {
      Framework.Config.default with
      Framework.Config.collector_retention = Bgp.Collector.Counts_only;
    }
  in
  let net = Framework.Network.create ~config ~seed:7 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let load =
    List.init 30 (fun m ->
        (stub_arr.(m mod Array.length stub_arr), Framework.Experiments.scale_prefix m))
  in
  let best_changes () =
    Net.Asn.Map.fold
      (fun _ r acc -> acc + (Bgp.Router.stats r).Bgp.Router.best_changes)
      (Framework.Network.routers net) 0
  in
  let changes0 = best_changes () in
  let before = Gc.minor_words () in
  List.iter (fun (stub, p) -> Framework.Network.originate net stub p) load;
  ignore (Framework.Network.settle net);
  List.iter (fun (stub, p) -> Framework.Network.withdraw net stub p) load;
  ignore (Framework.Network.settle net);
  let words = Gc.minor_words () -. before in
  let changes = best_changes () - changes0 in
  Alcotest.(check bool) "the load changed routes" true (changes > 1000);
  words /. float_of_int changes

(* Bounds: the readings above plus 25% (100), and the highest hybrid
   reading with derived Adj-RIB-Outs plus 15% (158). *)
let test_export_words () =
  let per_change = export_words_per_change ~sdn:0 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per best change <= 100" per_change)
    true (per_change <= 100.0)

let test_export_words_hybrid () =
  let per_change = export_words_per_change ~sdn:6 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per best change <= 158" per_change)
    true (per_change <= 158.0)

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
      Framework.Experiments.(
        run (describe ~members:(Last 2) ~config:Framework.Config.fast_test ~seed:11 (Clique 6)))
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
    QCheck_alcotest.to_alcotest prop_label_roundtrip;
    Alcotest.test_case "label escapes" `Quick test_label_escapes;
    QCheck_alcotest.to_alcotest prop_export_order;
    Alcotest.test_case "construction allocation fence" `Quick test_construction_words;
    Alcotest.test_case "export-path allocation fence" `Quick test_export_words;
    Alcotest.test_case "hybrid export-path allocation fence" `Quick test_export_words_hybrid;
    Alcotest.test_case "sampler dormant + resume" `Quick test_sampler_dormant_and_resume;
    Alcotest.test_case "sim category counters" `Quick test_sim_category_counters;
    Alcotest.test_case "same seed, byte-identical export" `Quick
      test_same_seed_byte_identical;
    Alcotest.test_case "telemetry validators" `Quick test_telemetry_validate;
  ]
