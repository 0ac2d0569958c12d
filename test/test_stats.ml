(* Engine.Stats: descriptive statistics and the linear-fit helpers used by
   the Fig. 2 trend check. *)

open Engine

let feq = Alcotest.(check (float 1e-9))

let test_mean_stddev () =
  feq "mean" 3.0 (Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  feq "stddev" (sqrt 2.5) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.(check (float 0.0)) "stddev singleton" 0.0 (Stats.stddev [ 42.0 ]);
  Alcotest.(check bool) "mean empty is nan" true (Float.is_nan (Stats.mean []))

let test_quantiles () =
  let l = [ 1.0; 2.0; 3.0; 4.0 ] in
  feq "median interpolated" 2.5 (Stats.median l);
  feq "q1" 1.75 (Stats.quantile l 0.25);
  feq "q3" 3.25 (Stats.quantile l 0.75);
  feq "min" 1.0 (Stats.quantile l 0.0);
  feq "max" 4.0 (Stats.quantile l 1.0);
  feq "median odd" 2.0 (Stats.median [ 1.0; 2.0; 3.0 ])

let test_boxplot () =
  let b = Stats.boxplot [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check int) "n" 5 b.Stats.n;
  feq "min" 1.0 b.Stats.minimum;
  feq "median" 3.0 b.Stats.median;
  feq "max" 5.0 b.Stats.maximum;
  feq "mean" 3.0 b.Stats.mean;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.boxplot: empty sample") (fun () ->
      ignore (Stats.boxplot []))

let test_linear_fit () =
  (* y = 2 + 3x exactly *)
  let pts = [ (0.0, 2.0); (1.0, 5.0); (2.0, 8.0); (3.0, 11.0) ] in
  let a, b = Stats.linear_fit pts in
  feq "intercept" 2.0 a;
  feq "slope" 3.0 b;
  feq "r2 perfect" 1.0 (Stats.r_squared pts)

let test_linear_fit_noisy () =
  let pts = [ (0.0, 1.9); (1.0, 5.2); (2.0, 7.8); (3.0, 11.1) ] in
  let _, b = Stats.linear_fit pts in
  Alcotest.(check bool) "slope near 3" true (Float.abs (b -. 3.0) < 0.3);
  Alcotest.(check bool) "r2 high" true (Stats.r_squared pts > 0.99)

let prop_boxplot_ordered =
  QCheck.Test.make ~name:"boxplot quartiles are ordered" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun l ->
      let b = Stats.boxplot l in
      b.Stats.minimum <= b.Stats.q1
      && b.Stats.q1 <= b.Stats.median
      && b.Stats.median <= b.Stats.q3
      && b.Stats.q3 <= b.Stats.maximum)

let suite =
  [
    Alcotest.test_case "mean and stddev" `Quick test_mean_stddev;
    Alcotest.test_case "quantiles" `Quick test_quantiles;
    Alcotest.test_case "boxplot" `Quick test_boxplot;
    Alcotest.test_case "linear fit exact" `Quick test_linear_fit;
    Alcotest.test_case "linear fit noisy" `Quick test_linear_fit_noisy;
    QCheck_alcotest.to_alcotest prop_boxplot_ordered;
  ]
