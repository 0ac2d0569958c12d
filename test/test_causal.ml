(* Engine.Causal: span store modes, parent-chain telescoping, critical-path
   attribution against measured convergence, deterministic exports (including
   under parallel sweeps), and the chaos flight recorder. *)

open Engine

let asn = Topology.Artificial.asn

let full_config =
  { Framework.Config.fast_test with Framework.Config.causal = Causal.Full }

(* --- Store modes --------------------------------------------------------- *)

let test_disabled_is_noop () =
  let sim = Sim.create ~seed:1 () in
  ignore (Sim.schedule_at sim (Time.ms 1) ignore);
  ignore (Sim.run sim);
  let c = Sim.causal sim in
  Alcotest.(check bool) "disabled" false (Causal.enabled c);
  Alcotest.(check int) "no spans opened" 0 (Causal.total c);
  Alcotest.(check int) "on_schedule yields -1" (-1)
    (Causal.on_schedule c ~category:"x" ~queued_at:Time.zero);
  (* annotate / with_span degrade to plain calls *)
  Sim.annotate sim ~category:"x" ();
  Alcotest.(check int) "annotate is a no-op" 0 (Causal.total c);
  Alcotest.(check int) "with_span runs the thunk" 7
    (Sim.with_span sim ~category:"x" (fun () -> 7))

let test_ring_exact () =
  let c = Causal.create ~mode:(Causal.Ring 4) ~seed:0 () in
  for _ = 1 to 10 do
    let id = Causal.on_schedule c ~category:"e" ~queued_at:Time.zero in
    Causal.on_execute c id ~fired_at:(Time.ms 1)
  done;
  Alcotest.(check int) "total eviction-proof" 10 (Causal.total c);
  Alcotest.(check int) "exactly capacity retained" 4 (Causal.stored c);
  Alcotest.(check bool) "evicted id gone" true (Causal.find c 0 = None);
  Alcotest.(check bool) "pre-window id gone" true (Causal.find c 5 = None);
  Alcotest.(check (list int)) "newest window, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (s : Causal.span) -> s.Causal.id) (Causal.spans c))

let test_trace_id_deterministic () =
  let id seed = Causal.trace_id (Causal.create ~mode:Causal.Full ~seed ()) in
  Alcotest.(check int) "same seed same id" (id 42) (id 42);
  Alcotest.(check bool) "different seeds differ" true (id 42 <> id 43)

(* The trace id comes from its own stream: minting it must not perturb the
   sim root RNG's draw order. *)
let test_trace_id_leaves_root_rng_alone () =
  let draws causal =
    let sim = Sim.create ~seed:5 ~causal () in
    List.init 8 (fun _ -> Rng.int (Sim.rng sim) 1000)
  in
  Alcotest.(check (list int)) "root RNG stream unchanged by tracing"
    (draws Causal.Disabled) (draws Causal.Full)

(* --- Allocation-free record path ----------------------------------------- *)

let packed_prefix s = Net.Ipv4.prefix_to_packed (Option.get (Net.Ipv4.prefix_of_string s))

(* Minor words [f] allocates, net of the measurement's own boxing. *)
let minor_words_of f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  measure f -. measure ignore

let round_at = Time.ms 5

let round_prefix = packed_prefix "10.1.2.0/24"

(* What a delivered event costs the store: schedule and execute it, with
   the hot-path markers (ASN and prefix labels) and an action span. *)
let record_rounds c rounds =
  let at = round_at and prefix = round_prefix in
  let action () = () in
  for i = 1 to rounds do
    let id = Causal.on_schedule c ~category:"net.deliver" ~queued_at:at in
    Causal.on_execute c id ~fired_at:at;
    Causal.mark c ~category:"bgp.update" ~node:"AS65001" ~render:Net.Asn.int_to_string
      (65000 + (i land 15)) ~at;
    Causal.mark c ~category:"fib.write" ~node:"AS65001"
      ~render:Net.Ipv4.packed_prefix_to_string prefix ~at;
    Causal.with_span c ~category:"action.withdraw" ~at action;
    Causal.clear_current c
  done

let test_record_path_allocation_free () =
  let rounds = 10_000 in
  let ring = Causal.create ~mode:(Causal.Ring 4096) ~seed:1 () in
  (* Fill the ring first: its slot arrays grow until they hold 4096. *)
  record_rounds ring 1000;
  let words = minor_words_of (fun () -> record_rounds ring rounds) in
  Alcotest.(check bool) "ring wrapped around" true (Causal.total ring > 2 * 4096);
  Alcotest.(check int) "ring keeps its window" 4096 (Causal.stored ring);
  (* Five record calls a round.  The bound is well under one word per
     call, so even one 2-word block per round (0.4) fails it. *)
  let per_op = words /. float_of_int (5 * rounds) in
  if per_op >= 0.1 then
    Alcotest.failf "Ring 4096 record path allocates %.2f minor words per operation" per_op;
  let off = Causal.create ~seed:1 () in
  Alcotest.(check (float 0.0)) "Disabled allocates nothing" 0.0
    (minor_words_of (fun () -> record_rounds off rounds))

(* Marker labels are rendered when read, exactly as the [pp] printers
   render them. *)
let test_marker_labels_render_like_pp () =
  let c = Causal.create ~mode:Causal.Full ~seed:1 () in
  let prefixes = [ "0.0.0.0/0"; "255.255.255.255/32"; "10.1.2.0/24" ] in
  let asns = [ 1; 65001; 0xFFFF_FFFF ] in
  List.iter
    (fun s ->
      Causal.mark c ~category:"fib.write" ~node:"n" ~render:Net.Ipv4.packed_prefix_to_string
        (packed_prefix s) ~at:Time.zero)
    prefixes;
  List.iter
    (fun n ->
      Causal.mark c ~category:"bgp.update" ~node:"n" ~render:Net.Asn.int_to_string n ~at:Time.zero)
    asns;
  let want =
    List.map
      (fun s -> Fmt.str "%a" Net.Ipv4.pp_prefix (Option.get (Net.Ipv4.prefix_of_string s)))
      prefixes
    @ List.map (fun n -> Fmt.str "%a" Net.Asn.pp (Net.Asn.of_int n)) asns
  in
  Alcotest.(check (list string)) "labels" want
    (List.map (fun (s : Causal.span) -> s.Causal.label) (Causal.spans c))

(* An exception out of an event action or a [with_span] thunk propagates
   and leaves no stale current span behind. *)
let test_exception_restores_current () =
  let sim = Sim.create ~seed:1 ~causal:(Causal.Ring 64) () in
  let c = Sim.causal sim in
  ignore (Sim.schedule_at ~category:"boom" sim (Time.ms 1) (fun () -> failwith "boom"));
  (match Sim.run sim with
  | _ -> Alcotest.fail "the action's exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "propagates out of Sim.run" "boom" msg);
  Alcotest.(check int) "current cleared" (-1) (Causal.current c);
  (match Causal.find c 0 with
  | Some s ->
    Alcotest.(check string) "the raising event's span" "boom" s.Causal.category;
    Alcotest.(check bool) "left closed" true s.Causal.closed
  | None -> Alcotest.fail "span missing");
  let outer = ref (-2) and after = ref (-2) in
  ignore
    (Sim.schedule_at ~category:"outer" sim (Time.ms 2) (fun () ->
         outer := Causal.current c;
         (match Sim.with_span sim ~category:"inner" (fun () -> failwith "inner") with
         | () -> Alcotest.fail "with_span swallowed the exception"
         | exception Failure _ -> ());
         after := Causal.current c));
  ignore (Sim.run sim);
  Alcotest.(check bool) "outer span current inside its action" true (!outer >= 0);
  Alcotest.(check int) "with_span restores the saved parent" !outer !after

(* --- Parent chains ------------------------------------------------------- *)

let test_parent_chain_telescopes () =
  let sim = Sim.create ~seed:3 ~causal:Causal.Full () in
  let c = Sim.causal sim in
  ignore
    (Sim.schedule_at ~category:"a" sim (Time.ms 10) (fun () ->
         ignore
           (Sim.schedule_after ~category:"b" sim (Time.ms 20) (fun () ->
                ignore (Sim.schedule_after ~category:"c" sim (Time.ms 5) ignore)))));
  ignore (Sim.run sim);
  let leaf =
    match Causal.find_last c (fun s -> s.Causal.category = "c") with
    | Some s -> s
    | None -> Alcotest.fail "leaf span missing"
  in
  let path = Causal.path_to_root c leaf in
  Alcotest.(check (list string)) "path categories root-first" [ "a"; "b"; "c" ]
    (List.map (fun (s : Causal.span) -> s.Causal.category) path);
  (* Each child is queued at the instant its parent fired. *)
  List.iteri
    (fun i (s : Causal.span) ->
      if i > 0 then
        let parent = List.nth path (i - 1) in
        Alcotest.(check int) "child queued at parent fire time"
          (Time.to_us parent.Causal.fired_at)
          (Time.to_us s.Causal.queued_at))
    path;
  let a = Causal.attribute c leaf in
  Alcotest.(check int) "depth" 3 a.Causal.depth;
  Alcotest.(check (float 1e-9)) "total telescopes to end-to-end" 0.035
    a.Causal.total_seconds;
  let sum = List.fold_left (fun acc r -> acc +. r.Causal.seconds) 0.0 a.Causal.rows in
  Alcotest.(check (float 1e-9)) "rows sum exactly to total" a.Causal.total_seconds sum

let test_annotate_and_with_span () =
  let sim = Sim.create ~seed:4 ~causal:Causal.Full () in
  let c = Sim.causal sim in
  Sim.with_span sim ~category:"scenario.action" ~label:"root" (fun () ->
      ignore
        (Sim.schedule_at ~category:"net.deliver" sim (Time.ms 2) (fun () ->
             Sim.annotate sim ~category:"fib.write" ~node:"AS65001" ~label:"p" ())));
  ignore (Sim.run sim);
  let leaf =
    match Causal.convergence_leaf c with
    | Some s -> s
    | None -> Alcotest.fail "fib.write marker missing"
  in
  Alcotest.(check string) "marker node" "AS65001" leaf.Causal.node;
  Alcotest.(check bool) "marker is zero-length" true
    (Time.equal leaf.Causal.queued_at leaf.Causal.fired_at);
  let path = Causal.path_to_root c leaf in
  Alcotest.(check (list string)) "rooted under the action"
    [ "scenario.action"; "net.deliver"; "fib.write" ]
    (List.map (fun (s : Causal.span) -> s.Causal.category) path)

let test_convergence_leaf_label_filter () =
  let sim = Sim.create ~seed:4 ~causal:Causal.Full () in
  let c = Sim.causal sim in
  Sim.annotate sim ~category:"fib.write" ~node:"a" ~label:"10.0.0.0/24" ();
  Sim.annotate sim ~category:"flow.install" ~node:"b" ~label:"10.0.1.0/24" ();
  (match Causal.convergence_leaf c with
  | Some s -> Alcotest.(check string) "newest write wins" "b" s.Causal.node
  | None -> Alcotest.fail "no leaf");
  match Causal.convergence_leaf ~label:"10.0.0.0/24" c with
  | Some s -> Alcotest.(check string) "label filter" "a" s.Causal.node
  | None -> Alcotest.fail "no labelled leaf"

(* --- End-to-end: attribution vs. measured convergence -------------------- *)

(* The acceptance bar: on a seeded clique withdrawal the critical-path
   attribution table sums to the measured convergence time, because every
   child span is queued at its parent's fire instant and the waits
   telescope from the action root to the final FIB write. *)
let test_clique_attribution_matches_convergence () =
  let exp = ref None in
  let r =
    Framework.Experiments.(
      run
        ~on_boot:(fun e -> exp := Some e)
        (describe ~config:full_config ~seed:2014 (Graph (Topology.Artificial.clique 6))))
  in
  let seconds = r.Framework.Experiments.seconds in
  let exp = Option.get !exp in
  let c = Sim.causal (Framework.Experiment.sim exp) in
  let label =
    Net.Ipv4.prefix_to_string (Framework.Experiment.default_prefix exp (asn 0))
  in
  let leaf =
    match Causal.convergence_leaf ~label c with
    | Some s -> s
    | None -> Alcotest.fail "no FIB write for the withdrawn prefix"
  in
  let a = Causal.attribute c leaf in
  Alcotest.(check bool) "non-trivial path" true (a.Causal.depth > 3);
  Alcotest.(check (float 1e-6)) "attribution sums to convergence time" seconds
    a.Causal.total_seconds;
  let sum = List.fold_left (fun acc r -> acc +. r.Causal.seconds) 0.0 a.Causal.rows in
  Alcotest.(check (float 1e-9)) "rows sum to total" a.Causal.total_seconds sum;
  (* A 6-clique withdrawal under MRAI pacing is dominated by MRAI holds. *)
  match a.Causal.rows with
  | top :: _ ->
    Alcotest.(check string) "mrai dominates" "mrai_hold"
      (Causal.bucket_to_string top.Causal.bucket)
  | [] -> Alcotest.fail "empty attribution"

(* --- Deterministic exports (sequential and under Pool) ------------------- *)

let chrome_of_run seed =
  let sim = ref None in
  ignore
    Framework.Experiments.(
      run
        ~on_boot:(fun e -> sim := Some (Framework.Experiment.sim e))
        (describe ~members:(Last 2) ~config:full_config ~seed
           (Graph (Topology.Artificial.clique 5))));
  Causal.to_chrome (Sim.causal (Option.get !sim))

let test_same_seed_byte_identical () =
  let a = chrome_of_run 7 and b = chrome_of_run 7 in
  Alcotest.(check string) "sequential repeat" a b;
  let parallel =
    Pool.with_pool ~jobs:2 (fun pool -> Pool.map pool chrome_of_run [ 7; 7; 9 ])
  in
  (match parallel with
  | [ x; y; z ] ->
    Alcotest.(check string) "parallel run matches sequential" a x;
    Alcotest.(check string) "parallel same-seed pair agrees" x y;
    Alcotest.(check bool) "different seed differs" true (a <> z)
  | _ -> Alcotest.fail "pool returned wrong arity")

let test_exports_are_valid_json () =
  let sim = Sim.create ~seed:11 ~causal:Causal.Full () in
  Sim.with_span sim ~category:"action" ~label:"quote\"and\\slash" (fun () ->
      ignore (Sim.schedule_at ~category:"net.deliver" sim (Time.ms 1) ignore));
  ignore (Sim.run sim);
  let c = Sim.causal sim in
  Alcotest.(check bool) "chrome export is valid JSON" true
    (Framework.Telemetry.json_valid (Causal.to_chrome c));
  String.split_on_char '\n' (Causal.to_jsonl c)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun l ->
         Alcotest.(check bool) "jsonl line is valid JSON" true
           (Framework.Telemetry.json_valid l))

(* Cancelled events leave their spans open; exporters must skip them. *)
let test_cancelled_events_not_exported () =
  let sim = Sim.create ~seed:12 ~causal:Causal.Full () in
  let h = Sim.schedule_at ~category:"doomed" sim (Time.ms 5) ignore in
  ignore (Sim.schedule_at ~category:"kept" sim (Time.ms 1) ignore);
  Sim.cancel h;
  ignore (Sim.run sim);
  let c = Sim.causal sim in
  let chrome = Causal.to_chrome c in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "executed span exported" true (contains "kept" chrome);
  Alcotest.(check bool) "cancelled span skipped" false (contains "doomed" chrome)

(* Tracing never changes results: trace ids come from a dedicated RNG
   stream, so the same seeded withdrawal converges identically with
   tracing disabled, on the default flight-recorder ring and with full
   retention. *)
let test_mode_leaves_result_alone () =
  let run causal =
    let config = { Framework.Config.default with Framework.Config.causal } in
    let r = Framework.Experiments.(run (describe ~members:(Last 8) ~config ~seed:67 (Clique 16))) in
    Framework.Experiments.(r.seconds, r.changes, r.collector_updates)
  in
  let disabled = run Causal.Disabled in
  List.iter
    (fun (name, mode) ->
      Alcotest.(check (triple (float 0.0) int int)) name disabled (run mode))
    [ ("ring 4096", Causal.Ring 4096); ("full", Causal.Full) ]

(* --- Flight recorder ----------------------------------------------------- *)

(* The framework default keeps a bounded ring alive on every network, so a
   flight dump is always available without opting into Full tracing. *)
let test_ring_always_on_in_framework () =
  let net =
    Framework.Network.create ~seed:3 (Topology.Artificial.clique 4)
  in
  Framework.Network.start net;
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  ignore (Framework.Network.settle net);
  let c = Sim.causal (Framework.Network.sim net) in
  (match Causal.mode c with
  | Causal.Ring _ -> ()
  | _ -> Alcotest.fail "framework default must be a flight-recorder ring");
  Alcotest.(check bool) "flight dump non-empty" true (Causal.flight_lines c <> []);
  Alcotest.(check bool) "ring stayed bounded" true
    (Causal.stored c <= 4096 && Causal.total c > 0)

(* A chaos violation renders its flight dump into the report. *)
let test_chaos_violation_renders_flight () =
  let schedule = { Framework.Chaos.index = 0; events = [] } in
  let fabricated =
    {
      Framework.Chaos.schedule;
      quiesced = true;
      violations =
        [ { Framework.Chaos.invariant = "no-forwarding-loop"; detail = "synthetic" } ];
      digest = "d41d8cd98f00b204e9800998ecf8427e";
      flight = [ "000000001000 #1<-0 chaos.fault (wait 10us)" ];
    }
  in
  let rendered = Framework.Chaos.render_result fabricated in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names the flight recorder" true
    (contains "flight recorder" rendered);
  Alcotest.(check bool) "report carries the spans" true
    (contains "chaos.fault" rendered);
  (* Clean runs carry no dump. *)
  let clean = { fabricated with Framework.Chaos.violations = []; flight = [] } in
  Alcotest.(check bool) "clean run has no dump" false
    (contains "flight recorder" (Framework.Chaos.render_result clean))

(* End to end through [Chaos.execute]: a link flapping every second for
   far longer than the 180 s quiet budget forces a real "quiescence"
   violation, which must auto-dump the flight recorder from the run's
   own ring store. *)
let test_chaos_execute_dumps_flight () =
  let a = Topology.Artificial.asn 0 and b = Topology.Artificial.asn 1 in
  let schedule =
    {
      Framework.Chaos.index = 0;
      events =
        [
          {
            Framework.Chaos.at = Engine.Time.sec 12;
            heal_at = Engine.Time.sec 13;
            fault = Framework.Scenario.Flap (a, b, 220);
          };
        ];
    }
  in
  let r = Framework.Chaos.execute ~seed:2014 schedule in
  Alcotest.(check bool) "run does not quiesce" false r.Framework.Chaos.quiesced;
  Alcotest.(check bool) "violations reported" true (r.Framework.Chaos.violations <> []);
  Alcotest.(check bool) "flight recorder auto-dumped" true
    (r.Framework.Chaos.flight <> []);
  (* The dump is the causal history into the bad state: the injected
     fault's spans must be visible in it. *)
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dump shows the chaos fault spans" true
    (List.exists (contains "chaos.") r.Framework.Chaos.flight);
  (* The dump itself is pinned, so the recorder's store layout cannot
     change what it renders. *)
  Alcotest.(check int) "flight lines" 3311 (List.length r.Framework.Chaos.flight);
  Alcotest.(check string) "flight dump digest" "a444c67f2015302de2062fcf6daf9946"
    (Digest.to_hex (Digest.string (String.concat "\n" r.Framework.Chaos.flight)))

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "ring keeps exactly n newest" `Quick test_ring_exact;
    Alcotest.test_case "trace id deterministic" `Quick test_trace_id_deterministic;
    Alcotest.test_case "trace id leaves root RNG alone" `Quick
      test_trace_id_leaves_root_rng_alone;
    Alcotest.test_case "record path allocation-free" `Quick test_record_path_allocation_free;
    Alcotest.test_case "marker labels render like pp" `Quick test_marker_labels_render_like_pp;
    Alcotest.test_case "exception restores current span" `Quick test_exception_restores_current;
    Alcotest.test_case "parent chain telescopes" `Quick test_parent_chain_telescopes;
    Alcotest.test_case "annotate and with_span" `Quick test_annotate_and_with_span;
    Alcotest.test_case "convergence leaf label filter" `Quick
      test_convergence_leaf_label_filter;
    Alcotest.test_case "clique attribution = convergence" `Quick
      test_clique_attribution_matches_convergence;
    Alcotest.test_case "same seed byte-identical (incl. pool)" `Quick
      test_same_seed_byte_identical;
    Alcotest.test_case "exports are valid JSON" `Quick test_exports_are_valid_json;
    Alcotest.test_case "cancelled events not exported" `Quick
      test_cancelled_events_not_exported;
    Alcotest.test_case "tracing mode leaves results alone" `Quick
      test_mode_leaves_result_alone;
    Alcotest.test_case "framework ring always on" `Quick test_ring_always_on_in_framework;
    Alcotest.test_case "chaos violation renders flight" `Quick
      test_chaos_violation_renders_flight;
    Alcotest.test_case "chaos execute dumps flight (end to end)" `Slow
      test_chaos_execute_dumps_flight;
  ]
