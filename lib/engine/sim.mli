(** Deterministic discrete-event scheduler.

    Events fire in (time, insertion sequence) order; with the splittable
    {!Rng} this makes runs bit-reproducible for a given seed.

    Domain-safety: a sim — and everything reachable from it ({!rng},
    {!causal}, {!metrics}, queued events) — is owned by exactly one
    domain at a time.  {!Pool}-driven sweeps respect this by building a
    fresh sim inside each task; the one accidental-sharing hazard is
    capturing a [t] (or its registry) in a closure submitted to the
    pool, which this module cannot detect — don't. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val create : ?seed:int -> ?causal:Causal.mode -> unit -> t
(** [causal] (default {!Causal.Disabled}) selects the causal-tracing mode:
    disabled costs nothing per event, [Ring n] keeps a bounded flight
    recorder, [Full] retains every span for export and analysis. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The root RNG; split per subsystem rather than drawing directly. *)

val causal : t -> Causal.t
(** The per-simulation causal span store (one per sim, same domain
    ownership rule as {!rng} and {!metrics}).  Every scheduled event
    opens a span parented under the event executing at schedule time. *)

val annotate : t -> category:string -> ?node:string -> ?label:string -> unit -> unit
(** Record a zero-length causal marker (e.g. a FIB write) at the current
    simulated time, as a child of the currently executing event's span.
    No-op when tracing is disabled. *)

val mark : t -> category:string -> node:int -> render:(int -> string) -> int -> unit
(** {!annotate} for hot paths: [node] is a {!trace_node} index and the
    label is [render arg], rendered only when the span is read (see
    {!Causal.mark}).  Allocation-free in every mode. *)

val trace_node : t -> string -> int
(** The causal store's index for a node name ({!Causal.intern_node}):
    a component resolves it once, when it is built, and passes it to
    every {!mark}. *)

val with_span :
  t -> category:string -> ?node:string -> ?label:string -> (unit -> 'a) -> 'a
(** Run a thunk under a labelled span so the events it schedules are
    parented under it — used to root a tree per scenario action.
    Just calls the thunk when tracing is disabled; restores the previous
    span when the thunk raises. *)

val metrics : t -> Metrics.t
(** The per-simulation metrics registry.  Every subsystem holding a [Sim.t]
    registers its series here, so one snapshot covers the whole stack. *)

val pending : t -> int
(** Events still queued (including cancelled ones not yet reaped). *)

val executed : t -> int
(** Events executed so far. *)

val schedule_at : ?category:string -> t -> Time.t -> (unit -> unit) -> handle
(** [category] (default ["event"]) labels the event in the
    [sim_events_scheduled_total]/[sim_events_executed_total] counters and
    in the wall-clock profile.
    @raise Invalid_argument if the instant is in the past. *)

val schedule_after : ?category:string -> t -> Time.span -> (unit -> unit) -> handle

val on_wake : t -> (unit -> unit) -> unit
(** [f] runs whenever the event queue transitions from empty to non-empty
    — the hook periodic services (e.g. {!Sampler}) use to resume after the
    simulation has drained and new work arrives. *)

val cancel : handle -> unit

val cancelled : handle -> bool

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. *)

type run_result = Exhausted | Reached_limit | Reached_time of Time.t

val run : ?until:Time.t -> ?max_events:int -> t -> run_result
(** Run until the queue drains, [max_events] fire, or the next event lies
    beyond [until] (in which case the clock advances to [until]). *)

(** {1 Wall-clock self-profiling}

    Per-category host CPU time spent inside event actions.  This is real
    time, not simulated time, so it varies run to run — it is therefore
    kept in its own table and never enters the metrics registry, keeping
    metric exports byte-identical across same-seed runs. *)

val set_profiling : t -> bool -> unit
(** Off at creation; the only switch for the wall-clock profile. *)

type profile_row = { category : string; events : int; seconds : float }

val profile : t -> profile_row list
(** Sorted by category; empty unless profiling was enabled. *)
