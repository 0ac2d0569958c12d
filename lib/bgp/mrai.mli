(** One peer's outbound side: its Adj-RIB-Out and the queue of changes
    not yet sent, paced by the MinRouteAdvertisementInterval.

    Both live in one table keyed by packed prefix.  A slot holds the
    advertised attributes and two queued bits: paced (waits for the MRAI
    timer) and exempt (leaves at the end of the event even while the
    timer runs).  A queued withdrawal keeps its slot until it is sent.

    Pacing: the first change after an idle period goes out at the end of
    its event and arms the timer; further changes coalesce until expiry;
    explicit withdrawals bypass the timer unless [mrai_on_withdrawals] is
    set.  An {!unpaced} table treats every change as exempt. *)

type t

val create :
  Engine.Sim.t ->
  rng:Engine.Rng.t ->
  config:Config.t ->
  send:(Message.update -> unit) ->
  t
(** A paced table. *)

val unpaced : send:(Message.update -> unit) -> t
(** A table without an MRAI timer: every change leaves at the end of its
    event (the cluster speaker's default).  Registers no metric. *)

val announce : t -> Net.Ipv4.prefix -> Attrs.t -> unit
(** Advertise [attrs] for the prefix.  No-op when the prefix is already
    advertised with wire-equal attributes. *)

val withdraw : t -> Net.Ipv4.prefix -> unit
(** No-op when the prefix is not advertised. *)

val advertised : t -> Net.Ipv4.prefix -> Attrs.t option
(** The Adj-RIB-Out entry: what the peer has been (or is about to be)
    told for the prefix. *)

val advertised_entries : t -> (Net.Ipv4.prefix * Attrs.t) list
(** Ascending prefix order. *)

val set_on_dirty : t -> (unit -> unit) -> unit
(** Called (at most once per event) when the first change of a scheduler
    event is queued.  The owner records this table as dirty and calls
    {!flush_event} at end of event, so all changes of one event leave as a
    single packed UPDATE.  Without a hook, every change flushes
    immediately. *)

val is_dirty : t -> bool
(** A change was queued since the last {!flush_event}. *)

val flush_event : t -> unit
(** End-of-event flush: emit the queued changes as one UPDATE, in prefix
    order.  While the MRAI timer runs, only exempt changes are sent (paced
    ones stay for timer expiry); the timer is armed only when paced
    changes were flushed.  Never crosses an MRAI boundary. *)

val pending_count : t -> int
(** Queued paced changes. *)

val is_throttled : t -> bool
(** True while the MRAI timer is running. *)

val reset : t -> unit
(** Session reset: empty the Adj-RIB-Out, drop queued changes and stop
    the timer. *)
