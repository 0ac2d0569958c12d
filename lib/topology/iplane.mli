(** iPlane Inter-PoP links dataset support: parser (PoP pairs with
    latencies, collapsed to AS-level links) and a synthetic generator. *)

type parse_error = { line : int; content : string; reason : string }

val pp_parse_error : Format.formatter -> parse_error -> unit

val parse_string : ?title:string -> ?pops_per_as:int -> string -> (Spec.t, parse_error) result
(** Parse "[pop1 pop2 \[latency_us\]]" lines; PoP-level links collapse onto
    AS-level links keeping the minimum latency. *)

val parse_file : string -> (Spec.t, parse_error) result
(** {!parse_string} over the file ({!Text_file.read}).
    @raise Sys_error naming the path when it cannot be read. *)

val generate_text : ?ases:int -> ?pops_per_as:int -> Engine.Rng.t -> string
(** Synthesize an iPlane-like inter-PoP file (geometric placement,
    distance-proportional latencies). *)

val generate : ?ases:int -> ?pops_per_as:int -> Engine.Rng.t -> Spec.t
(** [generate_text] piped through [parse_string]. *)
