(** CAIDA AS-relationship dataset support: serial-1 parser/renderer and a
    synthetic Internet-like generator for sealed environments. *)

type parse_error = { line : int; content : string; reason : string }

val pp_parse_error : Format.formatter -> parse_error -> unit

val parse_string : ?title:string -> string -> (Spec.t, parse_error) result
(** Parse serial-1 text ([provider|customer|-1], [peer|peer|0],
    [sibling|sibling|2], ['#'] comments).  Self-loops and duplicate AS pairs (whatever their
    relationships) are rejected with the offending line — real datasets
    relate each unordered pair exactly once, so repetition means a broken
    file or generator. *)

val parse_file : string -> (Spec.t, parse_error) result
(** {!parse_string} over the file ({!Text_file.read}).
    @raise Sys_error naming the path when it cannot be read. *)

val render : Spec.t -> string
(** Render a spec back to serial-1 text ([Open] links render as peers). *)

val generate : ?tier1:int -> ?tier2:int -> ?stubs:int -> ?multihome:float -> Engine.Rng.t -> Spec.t
(** Synthetic Internet-like graph: tier-1 peering clique, multi-homed
    tier-2 transit with lateral peering, and stub customers. *)

val stub_asns : tier1:int -> tier2:int -> stubs:int -> Net.Asn.t list
