(** Virtual simulation time: absolute instants and spans, in integer
    microseconds.  Integer time keeps the event queue ordering exact and
    simulation runs bit-reproducible. *)

type t
(** An absolute instant since simulation start. *)

type span = t
(** A difference between instants.  Spans and instants share the
    representation; constructors below build spans. *)

val zero : t

val compare : t -> t -> int

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val min : t -> t -> t

val max : t -> t -> t

val add : t -> span -> t

val diff : t -> t -> span

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val of_sec_f : float -> span
(** [of_sec_f f] is a span of [f] seconds, rounded to the microsecond. *)

val span_add : span -> span -> span

val span_scale : span -> float -> span
(** [span_scale s f] scales span [s] by factor [f] (used for MRAI jitter). *)

val span_zero : span

val to_us : t -> int

val to_ms_f : t -> float

val to_sec_f : t -> float

val of_us : int -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
