(** Allocation-free data-plane fast path: a compiled, frozen snapshot of
    forwarding state (legacy routes + SDN flow tables + local delivery sets
    + link liveness) over dense node indices, probed by packed
    int-encoded probes.  The snapshot cuts the address space into
    destination classes (the intervals between the ends of every prefix
    it holds) and tabulates, per class and node, the next index, a drop
    or local delivery.  The first probe of a class resolves that class's
    row for every node at once (fate and hop count at unbounded TTL), and
    a direct-mapped cache remembers each recent destination's class, so
    one {!forward} call is a cache probe, one table read and a TTL
    comparison — no packet record, no per-hop [option], no allocation at
    all on the hot path.  Build with the builder functions (allocation
    there is fine), then fire probes; rebuild after the control plane
    changes.  Not domain-safe: one snapshot per domain. *)

type t

(** A probe's terminal classification.  [Looped] means the path revisited
    a node: with frozen state that proves a persistent forwarding cycle
    (a live packet would continue around it and die of TTL). *)
type fate = Delivered | Blackholed | Looped | Ttl_expired

val fate_to_string : fate -> string
(** ["delivered"], ["blackhole"], ["loop"], ["ttl_expired"] — the metric
    label values. *)

val pp_fate : Format.formatter -> fate -> unit

val drop : int
(** The non-index action code ([-1]): no route / drop / controller punt. *)

val create : asns:int array -> t
(** A snapshot over these nodes; dense index = array position. *)

val asn_at : t -> int -> int
(** The AS number at a dense index. *)

val index_of : t -> int -> int
(** Dense index of an AS number, [-1] when absent. *)

(** {2 Building}

    Every builder call takes effect on the next {!forward}: a snapshot
    whose entries or local sets changed recompiles its class table there
    (or at {!compile}); a {!set_link} only drops the resolved rows.
    Builder calls copy what they are given; later changes
    to a table or array handed over do not reach the snapshot.  Action
    codes outside [0 .. size - 1] forward like {!drop}. *)

val add_local : t -> int -> Ipv4.prefix -> unit
(** Addresses in this prefix are locally delivered at the node. *)

val add_local_addr : t -> int -> Ipv4.addr -> unit
(** Single-address (/32) local delivery — router loopbacks. *)

val set_entries : t -> int -> max:int -> ((int -> int -> unit) -> unit) -> unit
(** [set_entries t i ~max fill]: the node forwards by longest-prefix
    match over the entries [fill] passes to its argument, each as a
    packed prefix ({!Ipv4.prefix_to_packed}) and its action code (a
    dense next index, or {!drop}): at most [max] of them, in ascending
    {!Ipv4.compare_prefix} order (a legacy router's Loc-RIB walk).
    Replaces the node's earlier entries. *)

val set_fib : t -> int -> 'a Fib.t -> code:('a -> int) -> unit
(** {!set_entries} over this FIB (an SDN switch's flow table), each
    entry's value mapped to its action code by [code]. *)

val set_link : t -> int -> int -> bool -> unit
(** Directed link usability between dense indices (set both ways for a
    bidirectional link).  After {!compile}, a call that changes a link
    keeps the class table and drops the resolved rows: the next
    {!forward} re-marks every row unresolved (cost nodes × classes), and
    each class is resolved again on its first probe. *)

val compile : t -> unit
(** Compile the class table now, so the next {!forward} does not.  Cost
    grows with the snapshot's entries plus nodes × classes.  It empties
    the destination cache, leaves every row unresolved and forgets the
    last probe ({!last_path} is then empty). *)

(** {2 The hot path} *)

val forward : t -> src:int -> dst_bits:int -> ttl:int -> int
(** Forward one probe (src dense index, destination
    {!Ipv4.addr_to_bits}, TTL) to its terminal fate, mirroring the live
    per-hop order: local delivery, then the loop check (a revisited
    node), then TTL expiry, then lookup, then link liveness.  Only the
    low 32 bits of [dst_bits] are read: any int, negative ones included,
    forwards like [dst_bits land 0xffff_ffff].  Returns the packed int
    [(hops lsl 2) lor fate-code]; decode with
    {!result_fate}/{!result_hops}.  Cost: a destination-cache probe (a
    binary search over the classes on a miss), one read of the resolved
    table (an O(nodes) pass on a class's first probe) and a TTL
    comparison.  Allocates nothing once compiled.
    @raise Invalid_argument for a bad [src] index. *)

val result_fate : int -> fate

val result_fate_code : int -> int
(** The raw 0..3 fate code, for counting without constructors. *)

val result_hops : int -> int

val last_path : t -> int array
(** Dense-index path of the most recent {!forward}: its source, then the
    class row's successors for as many hops as the probe took (a looped
    path ends on the revisited node).  Builds a fresh array of hops + 1
    entries; diagnostics and tests, not the hot path. *)
