(* Deterministic splittable PRNG (SplitMix64).

   Every subsystem receives its own split stream so that adding a random
   draw in one module never perturbs the draws seen by another — a property
   plain [Random.State] sharing does not give and which keeps experiment
   runs comparable across code changes. *)

(* The SplitMix64 state lives unboxed in 8 bytes: the primitives below
   read and write it as a raw int64, so a draw allocates nothing.  Every
   step is written in this module, where the compiler inlines it, so the
   int64 temporaries of a draw stay in registers. *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64u"

external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] of_state z =
  let t = Bytes.create 8 in
  set_state t 0 z;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let[@inline] bits53 t = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)

let[@inline] float t bound = bits53 t /. 9007199254740992.0 *. bound

let[@inline] uniform t lo hi = lo +. float t (hi -. lo)

(* Rejection sampling to avoid modulo bias: a top-level loop over
   immediate arguments, so no closure and no boxed bound. *)
let rec draw t bound =
  let bound64 = Int64.of_int bound in
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  let v = Int64.rem r bound64 in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then draw t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let chance t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let sample t k l =
  if k >= List.length l then l
  else
    let shuffled = shuffle t l in
    List.filteri (fun i _ -> i < k) shuffled

(* [Time.span_scale], computed here so the factor is never boxed. *)
let jitter_span t span ~lo ~hi =
  Time.us (Float.to_int (Float.of_int (Time.to_us span) *. uniform t lo hi))
