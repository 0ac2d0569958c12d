(* Framework.Experiments: scaled-down versions of the paper experiments —
   the same code paths as `hybridsim sweep`, with small n and few runs. *)

let cfg = Framework.Config.fast_test

let test_fig2_shape () =
  (* 8-AS clique, 0/2/4/6 SDN, 2 runs: median Tdown must decrease with
     the SDN fraction, and the linear fit must slope downward. *)
  let s = Framework.Experiments.fig2_withdrawal ~n:8 ~runs:2 ~seed:3 ~config:cfg () in
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
  let s = Framework.Experiments.announcement_sweep ~n:8 ~runs:2 ~seed:5 ~config:cfg () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "Tup small at x=%.0f" p.Framework.Experiments.x)
        true
        ((Framework.Experiments.box p).Engine.Stats.median < 2.0))
    s.Framework.Experiments.points

let test_failover_completes () =
  let r = Framework.Experiments.failover_run ~n:5 ~sdn:2 ~seed:7 ~config:cfg () in
  Alcotest.(check bool) "failover measured" true (not (Float.is_nan r.Framework.Experiments.seconds));
  Alcotest.(check bool) "positive" true (r.Framework.Experiments.seconds > 0.0)

let test_failover_sweep_runs () =
  let s = Framework.Experiments.failover_sweep ~n:6 ~runs:1 ~seed:9 ~config:cfg () in
  Alcotest.(check bool) "has points" true (List.length s.Framework.Experiments.points >= 2);
  List.iter
    (fun p ->
      Alcotest.(check bool) "finite medians" true
        (Float.is_finite (Framework.Experiments.box p).Engine.Stats.median))
    s.Framework.Experiments.points

let test_ablation_recompute_delay () =
  let s =
    Framework.Experiments.ablation_recompute_delay ~n:6 ~runs:1 ~seed:11 ~config:cfg
      ~delays_ms:[ 0; 1000 ] ()
  in
  Alcotest.(check int) "two points" 2 (List.length s.Framework.Experiments.points)

let test_ablation_wrate_direction () =
  (* Quagga-style withdrawal pacing (x=1) must converge slower than
     RFC-style exemption (x=0). *)
  let s = Framework.Experiments.ablation_wrate ~n:6 ~runs:2 ~seed:13 ~config:cfg ~sdn:0 () in
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
    Framework.Experiments.ablation_mrai ~n:6 ~runs:2 ~seed:17 ~config:cfg ~mrai_s:[ 1; 2; 4 ]
      ~sdn:0 ()
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
    Framework.Experiments.placement_run ~spec ~k:2
      ~placement:Framework.Experiments.Top_degree ~origin ~seed:2 ~config:cfg ()
  in
  Alcotest.(check bool) "measured" true (Float.is_finite r.Framework.Experiments.seconds)

let test_churn_run () =
  let quiet =
    Framework.Experiments.clique_run ~n:5 ~sdn:0 ~event:Framework.Experiments.Withdrawal
      ~seed:49 ~config:cfg ()
  in
  let churny =
    Framework.Experiments.churn_run ~n:5 ~sdn:0 ~flap_period_s:2.0 ~seed:49 ~config:cfg ()
  in
  Alcotest.(check bool) "both measured" true
    (Float.is_finite quiet.Framework.Experiments.seconds
    && Float.is_finite churny.Framework.Experiments.seconds);
  Alcotest.(check bool) "churn never speeds convergence up materially" true
    (churny.Framework.Experiments.seconds >= quiet.Framework.Experiments.seconds *. 0.8)

let test_table_size_control () =
  let bare =
    Framework.Experiments.table_size_run ~n:5 ~sdn:0 ~background:0 ~seed:45 ~config:cfg ()
  in
  let loaded =
    Framework.Experiments.table_size_run ~n:5 ~sdn:0 ~background:3 ~seed:45 ~config:cfg ()
  in
  (* same order of magnitude: background prefixes must not explode Tdown *)
  Alcotest.(check bool)
    (Fmt.str "%.1f vs %.1f comparable" bare.Framework.Experiments.seconds
       loaded.Framework.Experiments.seconds)
    true
    (loaded.Framework.Experiments.seconds < 3.0 *. bare.Framework.Experiments.seconds)

let test_scaling_sweep () =
  let s =
    Framework.Experiments.scaling_sweep ~sizes:[ 5; 7 ] ~fraction:0.4 ~runs:1 ~seed:43
      ~config:cfg ()
  in
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
  let run () =
    Framework.Experiments.clique_run ~n:5 ~sdn:2 ~event:Framework.Experiments.Withdrawal
      ~seed:17 ~config:cfg ()
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12)) "identical seconds" a.Framework.Experiments.seconds
    b.Framework.Experiments.seconds;
  Alcotest.(check int) "identical changes" a.Framework.Experiments.changes
    b.Framework.Experiments.changes

let test_guards () =
  (match Framework.Experiments.clique_run ~n:4 ~sdn:3 ~event:Framework.Experiments.Withdrawal ~seed:1 ~config:cfg () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sdn too large must raise");
  match Framework.Experiments.clique_run ~n:4 ~sdn:0 ~event:Framework.Experiments.Failover ~seed:1 ~config:cfg () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "failover via clique_run must raise"

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
    Alcotest.test_case "churn coupling" `Quick test_churn_run;
    Alcotest.test_case "table-size control" `Quick test_table_size_control;
    Alcotest.test_case "scaling sweep" `Slow test_scaling_sweep;
    Alcotest.test_case "sub-cluster resilience" `Quick test_subcluster_resilience;
    Alcotest.test_case "determinism" `Quick test_run_results_deterministic;
    Alcotest.test_case "argument guards" `Quick test_guards;
  ]
