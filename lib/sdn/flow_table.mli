(** A switch's flow table: highest priority wins, then longest prefix. *)

type t

val create : ?metrics:Engine.Metrics.t -> ?labels:Engine.Metrics.labels -> unit -> t
(** When [metrics] is given, occupancy is exported as the
    [sdn_flow_table_rules] gauge carrying [labels]. *)

val rules : t -> Flow.rule list

val size : t -> int

val add : t -> Flow.rule -> unit
(** Add-or-replace on the (match, priority) key. *)

val delete : t -> match_prefix:Net.Ipv4.prefix -> unit
(** Delete all rules matching exactly this prefix (any priority). *)

val delete_exact : t -> Flow.rule -> unit

val remove_physical : t -> Flow.rule -> bool
(** Remove exactly this rule record (physical identity); [false] when it
    was not installed.  Timeout expiry uses this so a later same-key
    replacement is never removed by the old rule's timer. *)

val mem_physical : t -> Flow.rule -> bool

val clear : t -> unit

val lookup_idx : t -> int -> int
(** [lookup_idx t bits] is the index (into the sorted rule array, see
    {!nth_rule}) of the winning rule — highest priority, then longest
    prefix — for an address given as {!Net.Ipv4.addr_to_bits} int bits,
    or [-1] on a miss.  It allocates nothing and mutates nothing. *)

val nth_rule : t -> int -> Flow.rule
(** The rule at a {!lookup_idx} index.  @raise Invalid_argument when out
    of bounds (including [-1]). *)

val find : t -> match_prefix:Net.Ipv4.prefix -> Flow.rule option

val entries_sorted : t -> Flow.rule list

val pp : Format.formatter -> t -> unit
