(** Per-peer outbound update scheduling under the
    MinRouteAdvertisementInterval: first change sends immediately and arms
    the timer; further changes coalesce until expiry; explicit withdrawals
    bypass the timer unless configured otherwise. *)

type pending = Announce of Attrs.t | Withdraw

type t

val create :
  Engine.Sim.t ->
  rng:Engine.Rng.t ->
  config:Config.t ->
  send:(Message.update -> unit) ->
  t

val enqueue_announce : t -> Net.Ipv4.prefix -> Attrs.t -> unit

val enqueue_withdraw : t -> Net.Ipv4.prefix -> unit

val set_on_dirty : t -> (unit -> unit) -> unit
(** Called (at most once per event) when the first change of a scheduler
    event is enqueued.  The owner records this instance as dirty and calls
    {!flush_event} at end of event, so all changes of one event leave as a
    single packed UPDATE.  Without a hook, every enqueue flushes
    immediately (the pre-batching behavior). *)

val flush_event : t -> unit
(** End-of-event flush: emit all enqueued changes as one UPDATE.  While
    the MRAI timer runs, only exempt withdrawals are sent (pending changes
    stay for timer expiry); the timer is armed only when throttle-subject
    changes were flushed.  Never crosses an MRAI boundary. *)

val pending_count : t -> int

val flushes : t -> int
(** UPDATE messages emitted so far. *)

val is_throttled : t -> bool
(** True while the MRAI timer is running. *)

val reset : t -> unit
(** Drop pending changes and stop the timer (session reset). *)
