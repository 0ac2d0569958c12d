(** Autonomous System numbers. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument outside the 32-bit ASN range. *)

val to_int : t -> int

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders as ["AS65001"]. *)

val to_string : t -> string
(** [Fmt.str "%a" pp], without going through Format. *)

val int_to_string : int -> string
(** {!to_string} of an ASN given as its {!to_int} — the static renderer
    causal markers store next to an immediate ASN. *)

val of_string : string -> t option
(** Accepts ["65001"] and ["AS65001"]. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
