(* Framework.Experiments: scaled-down versions of the paper experiments —
   the same code paths as `hybridsim sweep`, with small n and few runs. *)

module E = Framework.Experiments

let cfg = Framework.Config.fast_test

(* A row of the sweep table by name, and its grid at clique size [n]. *)
let row name = List.find (fun (k : E.kind) -> k.name = name) E.kinds

let params ~n ~seed = { E.n; seed; config = cfg; per_prefix = 2; interval_ms = 100 }

let convergence ?pool ~runs name ~n ~seed =
  match E.sweep_kind ?pool ~runs (row name) (params ~n ~seed) with
  | E.Convergence_series s -> s
  | E.Loss_series _ -> Alcotest.failf "%s is a loss row" name

let loss ?pool ~runs name ~n ~seed =
  match E.sweep_kind ?pool ~runs (row name) (params ~n ~seed) with
  | E.Loss_series s -> s
  | E.Convergence_series _ -> Alcotest.failf "%s is a convergence row" name

(* AS 0's withdrawal on the [n]-clique with its last [sdn] ASes centralized. *)
let withdrawal ?(config = cfg) ~n ~sdn ~seed () =
  E.run (E.describe ~members:(Last sdn) ~config ~seed (Clique n))

(* The [n]-clique withdrawal grid over a custom axis. *)
let withdrawal_grid ?pool ~label ~runs ~seed xs run =
  E.sweep ?pool ~label ~runs ~seed (List.map float_of_int xs) (fun ~x ~seed ->
      let n, sdn, config = run (int_of_float x) in
      withdrawal ~config ~n ~sdn ~seed ())

(* [hybridsim scale]'s run: the placement:top-degree withdrawal from the
   world's first stub behind a [prefixes]-prefix load across its stubs. *)
let scale ?(config = cfg) ~prefixes (world : E.caida_world) ~k ~seed =
  E.run
    {
      (E.describe ~members:(Placed (Top_degree, k)) ~origin:(List.hd world.stub_asns) ~config
         ~seed (Graph world.spec))
      with
      measure = Scale { origins = world.stub_asns; prefixes; budget = 20_000_000; clock = Sys.time };
    }

(* Ablation A1's grid at a custom delay axis. *)
let recompute_delay_grid ?pool ~n ~runs ~seed delays_ms =
  withdrawal_grid ?pool ~label:"ablation-recompute-delay" ~runs ~seed delays_ms (fun ms ->
      (n, n / 2, Framework.Config.with_recompute_delay cfg (Engine.Time.ms ms)))

(* The scaling grid at custom sizes and deployment fraction. *)
let scaling_grid ?pool ~sizes ~fraction ~runs ~seed () =
  withdrawal_grid ?pool ~label:"scaling-withdrawal" ~runs ~seed sizes (fun n ->
      (n, min (int_of_float (float_of_int n *. fraction)) (n - 2), cfg))

let test_fig2_shape () =
  (* 8-AS clique, 0/2/4/6 SDN, 2 runs: median Tdown must decrease with
     the SDN fraction, and the linear fit must slope downward. *)
  let s = convergence "fig2" ~n:8 ~runs:2 ~seed:3 in
  let medians =
    List.map (fun p -> (Framework.Experiments.box p).Engine.Stats.median)
      s.Framework.Experiments.points
  in
  (match (medians, List.rev medians) with
  | first :: _, last :: _ ->
    Alcotest.(check bool)
      (Fmt.str "monotone trend overall: %.1f .. %.1f" first last)
      true (last < first /. 2.0)
  | _ -> Alcotest.fail "empty sweep");
  let _, slope, r2 = Framework.Experiments.median_trend s in
  Alcotest.(check bool) (Fmt.str "negative slope %.2f" slope) true (slope < 0.0);
  Alcotest.(check bool) (Fmt.str "linear fit r2=%.2f" r2) true (r2 > 0.7)

let test_announcement_fast_and_flat () =
  let s = convergence "announce" ~n:8 ~runs:2 ~seed:5 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "Tup small at x=%.0f" p.Framework.Experiments.x)
        true
        ((Framework.Experiments.box p).Engine.Stats.median < 2.0))
    s.Framework.Experiments.points

let test_failover_completes () =
  let r =
    E.run (E.describe ~members:(Last 2) ~config:cfg ~seed:7 (Failover (Topology.Artificial.clique 5)))
  in
  Alcotest.(check bool) "failover measured" true (not (Float.is_nan r.Framework.Experiments.seconds));
  Alcotest.(check bool) "positive" true (r.Framework.Experiments.seconds > 0.0)

let test_failover_sweep_runs () =
  let s = convergence "failover" ~n:6 ~runs:1 ~seed:9 in
  Alcotest.(check bool) "has points" true (List.length s.Framework.Experiments.points >= 2);
  List.iter
    (fun p ->
      Alcotest.(check bool) "finite medians" true
        (Float.is_finite (Framework.Experiments.box p).Engine.Stats.median))
    s.Framework.Experiments.points

let test_ablation_recompute_delay () =
  let s = recompute_delay_grid ~n:6 ~runs:1 ~seed:11 [ 0; 1000 ] in
  Alcotest.(check int) "two points" 2 (List.length s.Framework.Experiments.points)

let test_ablation_wrate_direction () =
  (* Quagga-style withdrawal pacing (x=1) must converge slower than
     RFC-style exemption (x=0). *)
  let s = convergence "ablation:wrate" ~n:6 ~runs:2 ~seed:13 in
  match s.Framework.Experiments.points with
  | [ rfc; quagga ] ->
    Alcotest.(check bool)
      (Fmt.str "rfc %.2f < quagga %.2f" (Framework.Experiments.box rfc).Engine.Stats.median
         (Framework.Experiments.box quagga).Engine.Stats.median)
      true
      ((Framework.Experiments.box rfc).Engine.Stats.median
      < (Framework.Experiments.box quagga).Engine.Stats.median)
  | _ -> Alcotest.fail "expected two points"

let test_ablation_mrai_direction () =
  (* Exploration rounds are MRAI-paced: at 0% SDN a longer MRAI must
     converge slower. *)
  let s =
    withdrawal_grid ~label:"ablation-mrai" ~runs:2 ~seed:17 [ 1; 2; 4 ] (fun mrai ->
        (6, 0, Framework.Config.with_mrai cfg (Engine.Time.sec mrai)))
  in
  let medians =
    List.map (fun p -> (Framework.Experiments.box p).Engine.Stats.median)
      s.Framework.Experiments.points
  in
  match medians with
  | [ m1; m2; m4 ] ->
    Alcotest.(check bool) (Fmt.str "rising %.2f < %.2f < %.2f" m1 m2 m4) true (m1 < m2 && m2 < m4)
  | _ -> Alcotest.fail "expected three points"

let test_placement_strategies () =
  let rng = Engine.Rng.create 91 in
  let spec = Topology.Caida.generate ~tier1:2 ~tier2:4 ~stubs:8 rng in
  let origin = List.hd (Topology.Caida.stub_asns ~tier1:2 ~tier2:4 ~stubs:8) in
  (* top-degree must pick transit ASes, stubs-first must pick stubs *)
  let degree a = List.length (Topology.Spec.neighbors spec a) in
  let top =
    Framework.Experiments.choose_members ~spec ~k:2
      ~placement:Framework.Experiments.Top_degree ~origin ~seed:1
  in
  let bottom =
    Framework.Experiments.choose_members ~spec ~k:2
      ~placement:Framework.Experiments.Stubs_first ~origin ~seed:1
  in
  Alcotest.(check int) "k respected" 2 (List.length top);
  Alcotest.(check bool) "top degree >= stub degree" true
    (List.for_all (fun t -> List.for_all (fun b -> degree t >= degree b) bottom) top);
  Alcotest.(check bool) "origin never selected" true
    (not (List.exists (Net.Asn.equal origin) (top @ bottom)));
  (* a placement run completes and measures *)
  let r =
    E.run
      {
        (E.describe ~members:(Placed (Top_degree, 2)) ~origin ~config:cfg ~seed:2 (Graph spec)) with
        collector = Since_boot;
      }
  in
  Alcotest.(check bool) "measured" true (Float.is_finite r.Framework.Experiments.seconds)

(* A measured phase past its event limit is divergence and raises, as
   each phase of a placement run does; only a [bounded] phase (the scale
   path's horizon) reports whatever state it reached. *)
let test_measure_event_limit () =
  let world = E.caida_world ~tier1:2 ~tier2:4 ~stubs:8 ~seed:91 in
  let origin = List.hd world.stub_asns in
  let measure ?bounded () =
    let exp = Framework.Experiment.create ~config:cfg ~seed:2 world.spec in
    let prefix = Framework.Experiment.default_prefix exp origin in
    Framework.Experiment.measure ~max_events:5 ?bounded exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp origin))
  in
  (match measure () with
  | exception Failure msg ->
    Alcotest.(check bool) msg true (String.starts_with ~prefix:"Network.settle" msg)
  | _ -> Alcotest.fail "an unbounded phase past its event limit must raise");
  let m = measure ~bounded:true () in
  Alcotest.(check bool) "bounded phase stops short of convergence" true
    (m.Framework.Convergence.changes >= 0)

let test_churn_run () =
  let quiet = withdrawal ~n:5 ~sdn:0 ~seed:49 () in
  (* AS 1 flaps its prefix every 2 s through the measurement *)
  let flapper = Topology.Artificial.asn 1 in
  let cycle i =
    let base = 2.0 *. float_of_int i in
    Framework.Scenario.
      [ at base (Announce (flapper, None)); at (base +. 1.0) (Withdraw (flapper, None)) ]
  in
  let churny =
    E.run
      {
        (E.describe ~config:cfg ~seed:49 (Clique 5)) with
        churn = List.concat (List.init 40 cycle);
        collector = Since_boot;
      }
  in
  Alcotest.(check bool) "both measured" true
    (Float.is_finite quiet.Framework.Experiments.seconds
    && Float.is_finite churny.Framework.Experiments.seconds);
  Alcotest.(check bool) "churn never speeds convergence up materially" true
    (churny.Framework.Experiments.seconds >= quiet.Framework.Experiments.seconds *. 0.8)

let test_table_size_control () =
  let run background =
    E.run
      {
        (E.describe ~config:cfg ~seed:45 (Clique 5)) with
        background = List.map Topology.Artificial.asn background;
        collector = Since_boot;
      }
  in
  let bare = run [] in
  let loaded = run [ 1; 2; 3 ] in
  (* same order of magnitude: background prefixes must not explode Tdown *)
  Alcotest.(check bool)
    (Fmt.str "%.1f vs %.1f comparable" bare.Framework.Experiments.seconds
       loaded.Framework.Experiments.seconds)
    true
    (loaded.Framework.Experiments.seconds < 3.0 *. bare.Framework.Experiments.seconds)

let test_scaling_sweep () =
  let s = scaling_grid ~sizes:[ 5; 7 ] ~fraction:0.4 ~runs:1 ~seed:43 () in
  match s.Framework.Experiments.points with
  | [ small; large ] ->
    Alcotest.(check bool) "bigger clique converges slower" true
      ((Framework.Experiments.box large).Engine.Stats.median
      > (Framework.Experiments.box small).Engine.Stats.median)
  | _ -> Alcotest.fail "two points expected"

let test_subcluster_resilience () =
  let r = Framework.Experiments.subcluster_resilience ~seed:15 ~config:cfg () in
  Alcotest.(check bool) "reachable before" true r.Framework.Experiments.reachable_before;
  Alcotest.(check bool) "survives split via legacy" true
    r.Framework.Experiments.reachable_after_split;
  Alcotest.(check bool) "path crossed legacy world" true
    r.Framework.Experiments.used_legacy_bridge;
  Alcotest.(check bool) "recovers" true r.Framework.Experiments.reachable_after_recovery

let test_run_results_deterministic () =
  let run () = withdrawal ~n:5 ~sdn:2 ~seed:17 () in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12)) "identical seconds" a.Framework.Experiments.seconds
    b.Framework.Experiments.seconds;
  Alcotest.(check int) "identical changes" a.Framework.Experiments.changes
    b.Framework.Experiments.changes

(* The runner refuses a description before building anything: a clique
   keeps ASes 0 and 1 legacy, and fail-over needs a clique. *)
let test_guards () =
  (match withdrawal ~n:4 ~sdn:3 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sdn too large must raise");
  match E.run (E.describe ~config:cfg ~seed:1 (Failover (Topology.Artificial.ring 6))) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fail-over off a clique must raise"

(* The quickstart's run (a [Graph] world, as [hybridsim run] builds it)
   and the fig2 row's run at x = k are the same run. *)
let test_entry_points_agree () =
  let seed = 5 in
  let row = convergence "fig2" ~n:6 ~runs:1 ~seed in
  List.iter
    (fun (p : E.run_result E.point) ->
      let k = int_of_float p.x in
      let quick =
        Framework.Experiments.(
          run
            (describe ~members:(Last k) ~config:cfg ~seed (Graph (Topology.Artificial.clique 6))))
      in
      let fig2 = List.hd p.results in
      Alcotest.(check (float 0.0)) (Fmt.str "seconds at k=%d" k) fig2.seconds quick.seconds;
      Alcotest.(check int) (Fmt.str "changes at k=%d" k) fig2.changes quick.changes;
      Alcotest.(check int)
        (Fmt.str "collector updates at k=%d" k)
        fig2.collector_updates quick.collector_updates)
    row.points

(* Every row refuses a clique below its minimum before running anything,
   and runs at the minimum; names and aliases are unique, since the CLI
   looks rows up by them. *)
let test_kind_minimum_n () =
  let names = List.concat_map (fun (k : E.kind) -> k.name :: k.aliases) E.kinds in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (k : E.kind) ->
      (match E.sweep_kind ~runs:1 k (params ~n:(k.min_n - 1) ~seed:1) with
      | exception Invalid_argument msg ->
        (* the table's own check, not a run that got as far as failing *)
        Alcotest.(check bool) msg true (String.starts_with ~prefix:"Experiments.sweep_kind" msg)
      | _ -> Alcotest.failf "%s accepted n = %d" k.name (k.min_n - 1));
      (* the rows whose axis ignores n are covered at full size by the
         CSV goldens *)
      if k.axis k.min_n <> k.axis 16 then
        ignore (E.sweep_kind ~runs:1 k (params ~n:k.min_n ~seed:1)))
    E.kinds

(* Ranking by degree must not rescan the links per comparison: on a
   2,000-AS graph the allocation per AS stays a small constant (the
   comparator's [Spec.neighbors] lists cost ~10x this). *)
let test_choose_members_linear () =
  let tier1, tier2, stubs = (5, 95, 1900) in
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create 7) in
  let origin = List.hd (Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs) in
  List.iter
    (fun placement ->
      let before = Gc.minor_words () in
      let members = E.choose_members ~spec ~k:100 ~placement ~origin ~seed:1 in
      let per_as = (Gc.minor_words () -. before) /. 2000.0 in
      Alcotest.(check int) "k members" 100 (List.length members);
      Alcotest.(check bool)
        (Fmt.str "%.0f minor words per AS <= 100" per_as)
        true (per_as <= 100.0))
    [ E.Top_degree; E.Stubs_first ]

(* A settled experiment, once dropped, leaves nothing behind: after a full
   collection the live heap is back within 2% of the run's peak live
   words of its reading before.  While the intern set was strong, this
   run's attribute sets outlived it: about 40k words. *)
let test_dropped_run_leaves_no_residue () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* a world no other test loads, so no earlier run built its sets *)
  let world = E.caida_world ~tier1:3 ~tier2:8 ~stubs:40 ~seed:11 in
  (* the figures only: the result's telemetry snapshot goes with the run *)
  let settle () =
    let r = scale ~prefixes:30 world ~k:0 ~seed:11 in
    (r.E.load_settled, r.E.rib_routes, r.E.live_words)
  in
  let before = live () in
  let settled, routes, peak = settle () in
  let left = live () - before in
  (* the world was live at [before] too *)
  ignore (Sys.opaque_identity world);
  Alcotest.(check bool) "the load settled" true (settled && routes > 1000);
  Alcotest.(check bool)
    (Fmt.str "%d words left of a %d-word peak (limit 2%%)" left peak)
    true
    (50 * left <= peak)

(* [built_words_per_as] counts every word [Network.create] allocates, so
   builds of one spec in one process agree within 1% wherever in the
   minor heap they start: on an empty one, or filled so far that a minor
   collection falls inside the build. *)
let test_built_words_stable () =
  let world = E.caida_world ~tier1:3 ~tier2:8 ~stubs:40 ~seed:7 in
  let heap = (Gc.get ()).Gc.minor_heap_size in
  let built fill =
    Gc.minor ();
    for _ = 1 to fill / 101 do
      ignore (Sys.opaque_identity (Array.make 100 0))
    done;
    (scale ~prefixes:1 world ~k:0 ~seed:7).E.built_words_per_as
  in
  let first = built 0 in
  List.iter
    (fun fill ->
      let b = built fill in
      Alcotest.(check bool)
        (Fmt.str "%.1f and %.1f words per AS built (within 1%%)" first b)
        true
        (Float.abs (first -. b) <= 0.01 *. Float.max first b))
    [ heap / 2; heap - 60_000; heap - 40_000; heap - 20_000 ]

(* Centralizing the best-connected ASes removes exploring speakers and
   adds none, so on the 500-AS world Tdown must not rise with k.  Per
   world seed (3 runs per point, [hybridsim scale]'s seeding), the median
   at k = 25 and at k = 30 stays within half the shortest jittered MRAI
   (0.75 x 30 s) of the median at k = 0: one more paced hop costs at
   least that.  A router that decides once per received UPDATE, rather
   than once per prefix per processing window, put both one MRAI round
   above k = 0 on each of these seeds. *)
let test_caida500_no_hump () =
  let margin = 0.5 *. 0.75 *. 30.0 in
  List.iter
    (fun seed ->
      let world = E.caida_world ~tier1:5 ~tier2:40 ~stubs:455 ~seed in
      let s =
        E.sweep ~label:"caida500" ~runs:3 ~seed:(seed + 1) [ 0.0; 25.0; 30.0 ] (fun ~x ~seed ->
            (scale ~config:Framework.Config.default ~prefixes:1 world ~k:(int_of_float x) ~seed)
              .E.withdrawal)
      in
      match List.map (fun p -> (E.box p).Engine.Stats.median) s.E.points with
      | [ k0; k25; k30 ] ->
        List.iter
          (fun (k, m) ->
            Alcotest.(check bool)
              (Fmt.str "seed %d: k = %d median %.1f s <= k = 0 median %.1f s + %.2f s" seed k m k0
                 margin)
              true
              (m <= k0 +. margin))
          [ (25, k25); (30, k30) ]
      | _ -> Alcotest.fail "three points")
    [ 7; 11; 23 ]

let suite =
  [
    Alcotest.test_case "fig2 shape (scaled)" `Slow test_fig2_shape;
    Alcotest.test_case "announcement fast and flat" `Slow test_announcement_fast_and_flat;
    Alcotest.test_case "failover completes" `Quick test_failover_completes;
    Alcotest.test_case "failover sweep" `Slow test_failover_sweep_runs;
    Alcotest.test_case "ablation recompute delay" `Slow test_ablation_recompute_delay;
    Alcotest.test_case "ablation wrate direction" `Quick test_ablation_wrate_direction;
    Alcotest.test_case "ablation mrai direction" `Quick test_ablation_mrai_direction;
    Alcotest.test_case "placement strategies" `Quick test_placement_strategies;
    Alcotest.test_case "measure: event limit raises unless bounded" `Quick test_measure_event_limit;
    Alcotest.test_case "churn coupling" `Quick test_churn_run;
    Alcotest.test_case "table-size control" `Quick test_table_size_control;
    Alcotest.test_case "scaling sweep" `Slow test_scaling_sweep;
    Alcotest.test_case "500-AS curve has no hump" `Quick test_caida500_no_hump;
    Alcotest.test_case "sub-cluster resilience" `Quick test_subcluster_resilience;
    Alcotest.test_case "determinism" `Quick test_run_results_deterministic;
    Alcotest.test_case "argument guards" `Quick test_guards;
    Alcotest.test_case "quickstart and fig2 row agree" `Quick test_entry_points_agree;
    Alcotest.test_case "sweep kinds refuse small n" `Quick test_kind_minimum_n;
    Alcotest.test_case "choose_members linear" `Quick test_choose_members_linear;
    Alcotest.test_case "built words per AS are stable" `Quick test_built_words_stable;
    Alcotest.test_case "dropped run leaves no residue" `Quick
      test_dropped_run_leaves_no_residue;
  ]
