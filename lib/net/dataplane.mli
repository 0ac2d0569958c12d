(** Allocation-free data-plane fast path: a compiled, frozen snapshot of
    forwarding state (legacy FIBs + SDN flow tables + local delivery sets
    + link liveness) over dense node indices, walked by packed
    int-encoded probes.  One {!forward} call resolves a probe's whole
    path — no packet record, no per-hop [option], no allocation at
    all on the hot path.  Compile with the builder functions (allocation
    there is fine), then fire probes; recompile after the control plane
    changes.  Not domain-safe: one snapshot per domain. *)

type t

(** A probe's terminal classification.  [Looped] means the walk revisited
    a node: with frozen state that proves a persistent forwarding cycle
    (a live packet would continue around it and die of TTL). *)
type fate = Delivered | Blackholed | Looped | Ttl_expired

val fate_code : fate -> int
(** Stable int codes 0..3, in declaration order. *)

val fate_of_code : int -> fate
(** @raise Invalid_argument outside 0..3. *)

val fate_to_string : fate -> string
(** ["delivered"], ["blackhole"], ["loop"], ["ttl_expired"] — the metric
    label values. *)

val pp_fate : Format.formatter -> fate -> unit

val drop : int
(** The non-index action code ([-1]): no route / drop / controller punt. *)

val create : asns:int array -> t
(** A snapshot over these nodes; dense index = array position. *)

val size : t -> int

val asn_at : t -> int -> int
(** The AS number at a dense index. *)

val index_of : t -> int -> int
(** Dense index of an AS number, [-1] when absent. *)

(** {2 Building} *)

val add_local : t -> int -> Ipv4.prefix -> unit
(** Addresses in this prefix are locally delivered at the node. *)

val add_local_addr : t -> int -> Ipv4.addr -> unit
(** Single-address (/32) local delivery — router loopbacks. *)

val set_fib : t -> int -> int Fib.t -> unit
(** Legacy node: an LPM trie whose values are action codes (dense next
    index, or {!drop}).  The trie is aliased, not copied — hand the
    snapshot its own trie. *)

val set_rules : t -> int -> nets:int array -> masks:int array -> acts:int array -> unit
(** SDN node: a flow table flattened in its (priority desc, length desc)
    lookup order as {!Ipv4.addr_to_bits} networks, {!Ipv4.mask_bits}
    masks and action codes; first match wins, exactly like the live
    table.  @raise Invalid_argument on length mismatch. *)

val set_link : t -> int -> int -> bool -> unit
(** Directed link usability between dense indices (set both ways for a
    bidirectional link). *)

(** {2 The hot path} *)

val forward : t -> src:int -> dst_bits:int -> ttl:int -> int
(** Forward one probe (src dense index, destination
    {!Ipv4.addr_to_bits}, TTL) to its terminal fate, mirroring the live
    per-hop order: local delivery, then TTL expiry, then lookup, then
    link liveness.  Returns the packed int [(hops lsl 2) lor fate-code];
    decode with {!result_fate}/{!result_hops}.  Allocates nothing.
    @raise Invalid_argument for a bad [src] index. *)

val result_fate : int -> fate

val result_fate_code : int -> int
(** The raw 0..3 fate code, for counting without constructors. *)

val result_hops : int -> int

val last_path : t -> int array
(** Dense-index path of the most recent {!forward} (copies; diagnostics
    and tests, not the hot path). *)

val pp : Format.formatter -> t -> unit
