(** Static forwarding-state verification: classify every (src, dst) pair
    of the composed legacy BGP + SDN flow-table forwarding state — delivered,
    black-holed, looping, TTL-bound — by walking a frozen
    {!Net.Dataplane} snapshot, without sending packets and without
    mutating flow counters.  Loops are never legal; black holes may be
    (a prefix can be genuinely unreachable mid-recovery).  The
    {!differential} check holds the verifier and the event-driven
    reference walker ({!Monitor.walk}) to the same answer on every pair
    and backs the chaos invariant oracle. *)

type issue = {
  src : Net.Asn.t;
  dst : Net.Asn.t;
  fate : Net.Dataplane.fate;  (** never [Delivered] *)
  path : Net.Asn.t list;  (** source first, terminal node last *)
}

type report = {
  pairs : int;
  delivered : int;
  blackholed : int;
  looped : int;
  ttl_expired : int;
  issues : issue list;  (** every non-delivered pair, (src, dst) walk order *)
}

val pp_issue : Format.formatter -> issue -> unit

val loops : report -> issue list

val verify :
  ?ttl:int ->
  ?snapshot:Net.Dataplane.t ->
  ?srcs:Net.Asn.t list ->
  ?dsts:Net.Asn.t list ->
  Network.t ->
  report
(** Walk every [srcs] × [dsts] pair (defaults: all ASes) toward the host
    address of [dst]'s origin prefix.  [snapshot] reuses an
    already-compiled {!Network.dataplane_snapshot} of unchanged state. *)

type disagreement = {
  d_src : Net.Asn.t;
  d_dst : Net.Asn.t;
  static_fate : Net.Dataplane.fate;
  walk_outcome : Monitor.outcome;
}

val pp_disagreement : Format.formatter -> disagreement -> unit

val differential : ?ttl:int -> Network.t -> disagreement list
(** All pairs where the snapshot's fate differs from {!Monitor.walk}
    over the live state ([max_hops] = [ttl]; on networks smaller than
    that bound neither limit binds before loop detection, so agreement
    must be exact).  Empty on a correct fast path. *)
