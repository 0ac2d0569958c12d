(* Descriptive statistics for experiment results: the paper reports
   convergence times as boxplots over repeated runs (Fig. 2). *)

type boxplot = {
  n : int;
  minimum : float;
  q1 : float;
  median : float;
  q3 : float;
  maximum : float;
  mean : float;
  stddev : float;
}

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev = function
  | [] | [ _ ] -> 0.0
  | l ->
    let m = mean l in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
    sqrt (sq /. float_of_int (List.length l - 1))

(* Linear-interpolation quantile (type 7, the R/NumPy default) on a sorted
   array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let quantile l q =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile_sorted a q

let median l = quantile l 0.5

let boxplot l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.boxplot: empty sample";
  {
    n;
    minimum = a.(0);
    q1 = quantile_sorted a 0.25;
    median = quantile_sorted a 0.5;
    q3 = quantile_sorted a 0.75;
    maximum = a.(n - 1);
    mean = mean l;
    stddev = stddev l;
  }

(* Least-squares fit y = a + b*x; used to check Fig. 2's "linear
   reduction" claim programmatically. *)
let linear_fit pts =
  match pts with
  | [] | [ _ ] -> invalid_arg "Stats.linear_fit: need at least two points"
  | _ ->
    let n = float_of_int (List.length pts) in
    let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 pts in
    let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 pts in
    let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 pts in
    let denom = (n *. sxx) -. (sx *. sx) in
    if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x";
    let b = ((n *. sxy) -. (sx *. sy)) /. denom in
    let a = (sy -. (b *. sx)) /. n in
    (a, b)

let r_squared pts =
  let a, b = linear_fit pts in
  let ys = List.map snd pts in
  let ybar = mean ys in
  let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. ybar) ** 2.0)) 0.0 ys in
  let ss_res =
    List.fold_left (fun acc (x, y) -> acc +. ((y -. (a +. (b *. x))) ** 2.0)) 0.0 pts
  in
  if ss_tot < 1e-12 then 1.0 else 1.0 -. (ss_res /. ss_tot)

