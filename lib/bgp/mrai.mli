(** One peer's outbound side: the changes queued for it and not yet
    sent, paced by the MinRouteAdvertisementInterval.

    A table holds only its queued changes, each with its attrs (none for
    a withdrawal) and one of two bits: paced (waits for the MRAI timer)
    or exempt (leaves at the end of the event even while the timer
    runs).  A change is dropped once sent.  The peer's Adj-RIB-Out is
    derived: the queued change for a prefix if there is one, else what
    the owner last had sent, which the owner derives from its own state
    (the router from its Loc-RIB, the speaker from the decisions it last
    synced).  That view is always what the owner's previous state
    exports, so the owner tells a change from a no-op and queues only
    changes: the table compares nothing.

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
(** Queue [attrs] for the prefix, replacing a queued change.  The caller
    has checked that the peer's view (see {!view}) is not wire-equal
    attributes. *)

val withdraw : t -> Net.Ipv4.prefix -> unit
(** Queue a withdrawal for the prefix, replacing a queued change.  The
    caller has checked that the peer's view is a route. *)

val view : t -> Net.Ipv4.prefix -> sent:Attrs.t option -> Attrs.t option
(** What the peer has been (or is about to be) told for the prefix: the
    queued change, else [sent], the owner's account of what it was last
    sent. *)

val is_dirty : t -> bool
(** A change was queued since the last {!flush_event}. *)

val flush_event : t -> unit
(** End-of-event flush: emit the queued changes as one UPDATE, in prefix
    order.  While the MRAI timer runs, only exempt changes are sent (paced
    ones stay for timer expiry); the timer is armed only when paced
    changes were flushed.  Never crosses an MRAI boundary. *)

val pending_count : t -> int
(** Queued paced changes. *)

val queued_count : t -> int
(** Queued changes, paced and exempt. *)

val is_throttled : t -> bool
(** True while the MRAI timer is running. *)

val reset : t -> unit
(** Session reset: drop queued changes and stop the timer. *)
