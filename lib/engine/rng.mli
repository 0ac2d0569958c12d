(** Deterministic splittable PRNG (SplitMix64).

    Split a dedicated stream per subsystem so random draws in one module
    never perturb another module's stream.

    Domain-safety: a generator is unsynchronized mutable state.  The
    ownership rule is the engine-wide one — one simulation's state
    belongs to one domain at a time.  Never share a [t] between domains
    ({!Pool} tasks must each [create] or [split] their own); concurrent
    draws would race and destroy determinism silently. *)

type t
(** The state is 8 unboxed bytes: [int], [int_range], [bool], [chance]
    and [jitter_span] allocate nothing. *)

val create : int -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** [split t] derives an independent stream, advancing [t] by one draw. *)

val next_int64 : t -> int64

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)], without modulo bias. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] draws uniformly from [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a list -> 'a list

val sample : t -> int -> 'a list -> 'a list
(** [sample t k l] is [k] elements of [l] without replacement (all of [l]
    if [k >= length l]). *)

val jitter_span : t -> Time.span -> lo:float -> hi:float -> Time.span
(** [jitter_span t s ~lo ~hi] scales span [s] by a uniform factor in
    [\[lo, hi)] — e.g. Quagga's MRAI jitter uses [lo=0.75, hi=1.0]. *)
