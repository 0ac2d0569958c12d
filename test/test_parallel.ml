(* Engine.Pool + the parallel experiment runner: the differential
   guarantee is that a sweep executed on a domain pool (jobs >= 2) is
   structurally identical — per-run seconds/changes/collector_updates,
   metrics snapshots, boxplots — to the same sweep run sequentially. *)

let cfg = Framework.Config.fast_test

(* --- Engine.Pool unit tests ---------------------------------------------- *)

let test_pool_order () =
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let xs = List.init 100 Fun.id in
      let got = Engine.Pool.map pool (fun i -> i * i) xs in
      Alcotest.(check (list int)) "input order preserved" (List.map (fun i -> i * i) xs) got)

let test_pool_jobs1_bypass () =
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Engine.Pool.jobs pool);
      let got = Engine.Pool.map pool succ [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "sequential map" [ 2; 3; 4 ] got)

let test_pool_exception () =
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      (match
         Engine.Pool.map pool
           (fun i -> if i mod 3 = 1 then failwith (Fmt.str "boom %d" i) else i)
           (List.init 9 Fun.id)
       with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* lowest failing index (1) wins deterministically *)
        Alcotest.(check string) "lowest-index failure" "boom 1" msg);
      (* the pool survives a failed batch *)
      let got = Engine.Pool.map pool succ [ 10; 20 ] in
      Alcotest.(check (list int)) "reusable after failure" [ 11; 21 ] got)

let test_pool_reuse () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      let a = Engine.Pool.map pool (fun i -> i + 1) (List.init 17 Fun.id) in
      let b = Engine.Pool.map pool (fun i -> i * 2) (List.init 31 Fun.id) in
      Alcotest.(check (list int)) "first batch" (List.init 17 (fun i -> i + 1)) a;
      Alcotest.(check (list int)) "second batch" (List.init 31 (fun i -> i * 2)) b;
      Alcotest.(check (list int)) "empty batch" [] (Engine.Pool.map pool Fun.id []))

let test_pool_guards () =
  (match Engine.Pool.create ~jobs:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 must raise");
  let pool = Engine.Pool.create ~jobs:2 in
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool;
  (* idempotent *)
  match Engine.Pool.map pool Fun.id [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "map after shutdown must raise"

(* [recommended_jobs] honours HYBRIDSIM_JOBS_CAP, falls back to the
   default cap on unset/invalid values, and yields to an explicit ?cap. *)
let test_jobs_cap_env () =
  let with_env v f =
    let old = Sys.getenv_opt "HYBRIDSIM_JOBS_CAP" in
    Unix.putenv "HYBRIDSIM_JOBS_CAP" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "HYBRIDSIM_JOBS_CAP" (Option.value old ~default:"")) f
  in
  with_env "2" (fun () ->
      Alcotest.(check bool) "cap=2 applies" true (Engine.Pool.recommended_jobs () <= 2));
  with_env "1" (fun () ->
      Alcotest.(check int) "cap=1 applies" 1 (Engine.Pool.recommended_jobs ()));
  with_env "bogus" (fun () ->
      let d = Engine.Pool.recommended_jobs () in
      Alcotest.(check bool) "bogus falls back to default" true (d >= 1 && d <= 8));
  with_env "0" (fun () ->
      let d = Engine.Pool.recommended_jobs () in
      Alcotest.(check bool) "non-positive falls back" true (d >= 1 && d <= 8));
  (* explicit ?cap still beats the env var *)
  with_env "7" (fun () ->
      Alcotest.(check int) "explicit cap wins" 1 (Engine.Pool.recommended_jobs ~cap:1 ()))

(* --- Parallel-vs-sequential sweep differentials -------------------------- *)

let check_differential name seq par =
  (* targeted projections first, for readable failures *)
  let proj f s =
    List.concat_map
      (fun p -> List.map f p.Framework.Experiments.results)
      s.Framework.Experiments.points
  in
  Alcotest.(check (list (float 0.0)))
    (name ^ ": seconds")
    (proj (fun r -> r.Framework.Experiments.seconds) seq)
    (proj (fun r -> r.Framework.Experiments.seconds) par);
  Alcotest.(check (list int))
    (name ^ ": changes")
    (proj (fun r -> r.Framework.Experiments.changes) seq)
    (proj (fun r -> r.Framework.Experiments.changes) par);
  Alcotest.(check (list int))
    (name ^ ": collector_updates")
    (proj (fun r -> r.Framework.Experiments.collector_updates) seq)
    (proj (fun r -> r.Framework.Experiments.collector_updates) par);
  let boxes s =
    List.map
      (fun p ->
        (Framework.Experiments.box p).Engine.Stats.median)
      s.Framework.Experiments.points
  in
  Alcotest.(check (list (float 0.0))) (name ^ ": box medians") (boxes seq) (boxes par);
  (* then the full structural check: metrics snapshots included *)
  Alcotest.(check bool)
    (name ^ ": deep structural equality")
    true
    (Framework.Experiments.equal_series seq par)

let with_jobs jobs f = Engine.Pool.with_pool ~jobs f

let test_fig2_differential () =
  let seq = Test_experiments.convergence "fig2" ~n:6 ~runs:2 ~seed:3 in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun pool ->
          let par = Test_experiments.convergence ~pool "fig2" ~n:6 ~runs:2 ~seed:3 in
          check_differential (Fmt.str "fig2 jobs=%d" jobs) seq par))
    [ 2; 3; 4 ]

let test_announcement_differential () =
  let seq = Test_experiments.convergence "announce" ~n:6 ~runs:2 ~seed:5 in
  with_jobs 3 (fun pool ->
      let par = Test_experiments.convergence ~pool "announce" ~n:6 ~runs:2 ~seed:5 in
      check_differential "announce jobs=3" seq par)

let test_failover_differential () =
  let seq = Test_experiments.convergence "failover" ~n:6 ~runs:2 ~seed:9 in
  with_jobs 2 (fun pool ->
      let par = Test_experiments.convergence ~pool "failover" ~n:6 ~runs:2 ~seed:9 in
      check_differential "failover jobs=2" seq par)

let test_placement_differential () =
  (* the placement row's grid on a smaller world *)
  let world = Framework.Experiments.caida_world ~tier1:2 ~tier2:4 ~stubs:8 ~seed:53 in
  let sweep ?pool () =
    Framework.Experiments.sweep ?pool ~label:"placement-top-degree" ~runs:2 ~seed:54 [ 0.0; 2.0 ]
      (fun ~x ~seed ->
        Framework.Experiments.(
          run
            {
              (describe
                 ~members:(Placed (Top_degree, int_of_float x))
                 ~origin:(List.hd world.stub_asns) ~config:cfg ~seed (Graph world.spec))
              with
              collector = Since_boot;
            }))
  in
  let seq = sweep () in
  with_jobs 4 (fun pool ->
      let par = sweep ~pool () in
      check_differential "placement jobs=4" seq par)

let test_ablation_differential () =
  let sweep ?pool () =
    Test_experiments.recompute_delay_grid ?pool ~n:6 ~runs:2 ~seed:11 [ 0; 1000 ]
  in
  let seq = sweep () in
  with_jobs 2 (fun pool -> check_differential "ablation jobs=2" seq (sweep ~pool ()));
  (* a jobs=1 pool must be indistinguishable from no pool at all *)
  with_jobs 1 (fun pool -> check_differential "ablation jobs=1" seq (sweep ~pool ()))

let test_scaling_differential () =
  let sweep ?pool () =
    Test_experiments.scaling_grid ?pool ~sizes:[ 5; 7 ] ~fraction:0.4 ~runs:2 ~seed:43 ()
  in
  let seq = sweep () in
  with_jobs 3 (fun pool -> check_differential "scaling jobs=3" seq (sweep ~pool ()))

(* [hybridsim scale]'s sweep path at a tiny size: the placement world
   with a 10-prefix load in front of every withdrawal. *)
let test_scale_differential () =
  let world = Framework.Experiments.caida_world ~tier1:2 ~tier2:4 ~stubs:8 ~seed:97 in
  let sweep ?pool () =
    Framework.Experiments.sweep ?pool ~label:"scale-caida14-p10" ~runs:2 ~seed:98 [ 0.0; 2.0 ]
      (fun ~x ~seed ->
        (Test_experiments.scale ~prefixes:10 world ~k:(int_of_float x) ~seed)
          .Framework.Experiments.withdrawal)
  in
  let seq = sweep () in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "withdrawal measured" true
            (Float.is_finite r.Framework.Experiments.seconds))
        p.Framework.Experiments.results)
    seq.Framework.Experiments.points;
  with_jobs 2 (fun pool -> check_differential "scale jobs=2" seq (sweep ~pool ()))

(* The loss grid through the same runner: per-run loss results (probe
   epochs included) must not depend on the domain count. *)
let test_loss_differential () =
  let clique ?pool () = Test_experiments.loss ?pool "loss" ~n:6 ~runs:2 ~seed:43 in
  (* the loss:caida row's grid (its first multi-homed stub's first
     provider link fails) on a smaller world *)
  let world = Framework.Experiments.caida_world ~tier1:2 ~tier2:4 ~stubs:8 ~seed:61 in
  let spec = world.spec in
  let origin =
    List.find (fun a -> List.length (Topology.Spec.neighbors spec a) >= 2) world.stub_asns
  in
  let peer = List.hd (Topology.Spec.neighbors spec origin) in
  let caida ?pool () =
    Framework.Experiments.sweep ?pool ~label:"loss-caida14" ~runs:1 ~seed:62 [ 0.0; 2.0 ]
      (fun ~x ~seed ->
        Framework.Experiments.(
          run
            {
              (describe
                 ~members:(Placed (Top_degree, int_of_float x))
                 ~origin ~config:cfg ~seed (Graph spec))
              with
              event = Fail_link peer;
              measure = Loss { per_prefix = 2; interval_ms = 100 };
            }))
  in
  let seq_clique = clique () and seq_caida = caida () in
  let loss_seconds s =
    List.concat_map
      (fun p ->
        List.map
          (fun r -> r.Framework.Experiments.loss_seconds)
          p.Framework.Experiments.results)
      s.Framework.Experiments.points
  in
  let probes s =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc r -> acc + r.Framework.Experiments.probes)
          acc p.Framework.Experiments.results)
      0 s.Framework.Experiments.points
  in
  Alcotest.(check bool) "clique sweep probes" true (probes seq_clique > 0);
  Alcotest.(check bool) "caida sweep probes" true (probes seq_caida > 0);
  with_jobs 2 (fun pool ->
      let par_clique = clique ~pool () in
      Alcotest.(check (list (float 0.0)))
        "loss clique jobs=2: loss seconds" (loss_seconds seq_clique) (loss_seconds par_clique);
      Alcotest.(check bool)
        "loss clique jobs=2: deep structural equality" true
        (Framework.Experiments.equal_series seq_clique par_clique);
      Alcotest.(check bool)
        "loss caida jobs=2: deep structural equality" true
        (Framework.Experiments.equal_series seq_caida (caida ~pool ())))

let suite =
  [
    Alcotest.test_case "pool: order preservation" `Quick test_pool_order;
    Alcotest.test_case "pool: jobs=1 bypass" `Quick test_pool_jobs1_bypass;
    Alcotest.test_case "pool: exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool: reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "pool: guards" `Quick test_pool_guards;
    Alcotest.test_case "pool: HYBRIDSIM_JOBS_CAP" `Quick test_jobs_cap_env;
    Alcotest.test_case "fig2 parallel == sequential" `Slow test_fig2_differential;
    Alcotest.test_case "announce parallel == sequential" `Slow test_announcement_differential;
    Alcotest.test_case "failover parallel == sequential" `Slow test_failover_differential;
    Alcotest.test_case "placement parallel == sequential" `Slow test_placement_differential;
    Alcotest.test_case "ablation parallel == sequential" `Quick test_ablation_differential;
    Alcotest.test_case "scaling parallel == sequential" `Slow test_scaling_differential;
    Alcotest.test_case "loss parallel == sequential" `Quick test_loss_differential;
    Alcotest.test_case "scale parallel == sequential" `Quick test_scale_differential;
  ]
