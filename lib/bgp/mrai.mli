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

type batch
(** An owner's batch scope, shared by all of its tables.  Inside the
    scope, the first change of an event to a table only marks the table
    dirty (see {!is_dirty}); the owner flushes its dirty tables, in its
    own order, when the outermost scope closes, so all changes of one
    event leave as a single packed UPDATE per table.  Outside any scope
    every change flushes immediately. *)

val batch : unit -> batch

val enter : batch -> unit
(** Open a (nested) scope. *)

val leave : batch -> bool
(** Close a scope: [true] when it was the outermost one and a table went
    dirty within it, so the owner should flush its dirty tables now. *)

type t

val create :
  ?batch:batch ->
  Engine.Sim.t ->
  rng:Engine.Rng.t ->
  config:Config.t ->
  send:(Message.update -> unit) ->
  t
(** A paced table in [batch] (default: a batch of its own, never
    entered).  The MRAI timer is made when it is first armed. *)

val unpaced : ?batch:batch -> send:(Message.update -> unit) -> unit -> t
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
