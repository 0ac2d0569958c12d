(* Virtual simulation time.

   Time is an absolute instant measured in integer microseconds since the
   start of the simulation; [span] is a difference of instants.  Integer
   microseconds keep event ordering exact and runs bit-reproducible, which
   float seconds would not.  The representation is a plain immediate
   [int] (63 bits: ±146,000 years of microseconds), so comparing,
   storing and adding instants allocates nothing. *)

type t = int

type span = int

let zero = 0

let compare = Int.compare

let equal = Int.equal

let min (a : t) b = if a <= b then a else b

let max (a : t) b = if a >= b then a else b

let ( <= ) (a : t) b = a <= b

let ( < ) (a : t) b = a < b

let ( >= ) (a : t) b = a >= b

let ( > ) (a : t) b = a > b

let add = ( + )

let diff = ( - )

(* Span constructors. *)

let us n = n

let ms n = n * 1_000

let sec n = n * 1_000_000

(* Truncation toward zero, as the earlier int64 representation did. *)
let of_sec_f f = Float.to_int (f *. 1e6)

let span_add = ( + )

let span_scale span f = Float.to_int (Float.of_int span *. f)

let span_zero = 0

(* Conversions. *)

let to_us t = t

let to_ms_f t = Float.of_int t /. 1e3

let to_sec_f t = Float.of_int t /. 1e6

let of_us n = n

let pp ppf t = Fmt.pf ppf "%.3fs" (to_sec_f t)

let to_string t = Fmt.str "%a" pp t
