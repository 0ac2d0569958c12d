(** High-rate synthetic traffic generation over the allocation-free
    data-plane fast path ({!Net.Dataplane}).

    A generator fires seeded, deterministic probe bursts between
    simulation events: each burst classifies its whole schedule against
    a frozen snapshot of the composed forwarding state (no per-probe
    allocation, no flow-counter mutation), records the fate census as an
    epoch, and mirrors it into the simulator's metrics registry —
    [dataplane_probes_total], [dataplane_probes_delivered_total] and
    [dataplane_probes_dropped_total{fate="blackhole"|"loop"|"ttl_expired"}]
    — which {!Telemetry} scrapes on its normal cadence.  Drop counters
    are registered lazily per fate, so clean runs export unchanged
    series. *)

type schedule =
  | All_pairs  (** every ordered (src, dst) pair, spec order *)
  | Sampled_pairs of int  (** that many seeded random pairs per burst *)
  | Per_prefix of int  (** that many seeded random sources per destination prefix *)

type epoch = {
  at : Engine.Time.t;  (** simulated instant of the burst *)
  injected : int;
  delivered : int;
  blackholed : int;
  looped : int;
  ttl_expired : int;
}

val epoch_lost : epoch -> int
(** [blackholed + looped + ttl_expired]. *)

val loss_ratio : epoch -> float
(** Lost fraction of the injected probes (0 when none were injected). *)

type t

val create : ?ttl:int -> ?seed:int -> ?dsts:Net.Asn.t list -> Network.t -> schedule -> t
(** A generator probing from every AS toward [dsts] (default: all ASes;
    restrict it to the actually-originated prefixes when only some ASes
    announce).  [ttl] defaults to {!Net.Packet.default_ttl}; [seed] to
    0.  Sampling draws from a private RNG stream, so two generators with
    equal seeds fire identical schedules.
    @raise Invalid_argument on a non-positive sample budget or an empty
    destination set. *)

val burst : ?snapshot:Net.Dataplane.t -> t -> epoch
(** Fire one scheduled burst against the current forwarding state and
    record (and return) its epoch.  [snapshot] reuses an
    already-compiled {!Network.dataplane_snapshot} when the caller knows
    the control plane has not changed since. *)

val epochs : t -> epoch list
(** Every recorded epoch, oldest first. *)
