(** BGP path attributes. *)

type origin = Igp | Egp | Incomplete

val origin_rank : origin -> int
(** Decision-process rank: IGP < EGP < Incomplete. *)

type t = private {
  as_path : Net.Asn.t list;  (** leftmost = most recently traversed AS *)
  next_hop : Net.Ipv4.addr;
  local_pref : int;
  med : int;
  origin : origin;
  path_len : int;  (** cached [List.length as_path] *)
  path_hash : int;  (** hash of [as_path], extended by each prepend *)
  wire_id : int;  (** canonical id of the wire-visible attrs (domain-local) *)
}
(** Values are hash-consed: every construction returns the canonical,
    physically-unique value for its content, so [equal] is pointer
    equality and [wire_equal] a single int comparison.  Canonical values
    are immutable and must never be mutated through [Obj] tricks.

    The intern set holds its values weakly: a value nothing else
    references is reclaimed by the GC, and its content, built again
    later, becomes a new canonical value (with a new wire id if no
    local-pref variant of it was live).  Any two values a caller holds
    stay physically equal exactly when their contents are equal.

    Intern tables and wire ids are domain-local ([Engine.Pool] runs each
    experiment on one domain); wire ids are only meaningful for equality
    within a domain and must never be used for ordering. *)

val default_local_pref : int

val make :
  ?as_path:Net.Asn.t list ->
  ?local_pref:int ->
  ?med:int ->
  ?origin:origin ->
  next_hop:Net.Ipv4.addr ->
  unit ->
  t

val as_path : t -> Net.Asn.t list

val path_length : t -> int

val path_contains : t -> Net.Asn.t -> bool

val prepend : t -> Net.Asn.t -> t
(** Prepend an ASN (what an eBGP speaker does on export). *)

val exported : t -> asn:Net.Asn.t -> next_hop:Net.Ipv4.addr -> t
(** What an eBGP speaker advertises for a route carrying [t]: [asn]
    prepended, [next_hop] its own, local-pref back to
    {!default_local_pref}.  One intern; physically equal to {!prepend},
    then {!with_next_hop}, then {!with_local_pref}. *)

val with_local_pref : t -> int -> t
(** Finds the variant by the canonical value's wire id, without comparing
    paths (the import path stamps every received route). *)

val with_next_hop : t -> Net.Ipv4.addr -> t

val equal : t -> t -> bool
(** Full structural equality — O(1) thanks to interning. *)

val wire_equal : t -> t -> bool
(** Equality of the attributes a peer sees (local-pref excluded) — used to
    suppress duplicate advertisements.  O(1) id comparison. *)

val export_equal : t -> t -> bool
(** Whether {!exported} gives the same value for both, for any one
    exporter: the same AS path, MED and ORIGIN.  The next hops may
    differ. *)

val wire_id : t -> int

val vacant : t
(** A value no construction returns (it is never interned, and its wire
    id matches no canonical value's): a filler for array cells that hold
    no attributes, so that they keep no canonical value alive.  Never
    sent or compared. *)

type intern_stats = { distinct_wire : int; distinct_full : int }

val intern_stats : unit -> intern_stats
(** This domain's live canonical values (distinct wire-visible contents,
    full sets), counting every value the GC has not yet reclaimed; a scan
    of the whole set, for tests and memory accounting.  The counts fall
    when values are reclaimed. *)

val pp_path : Format.formatter -> Net.Asn.t list -> unit

val pp : Format.formatter -> t -> unit
