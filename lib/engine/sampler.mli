(** Periodic metrics sampler on the simulated clock.

    Snapshots {!Sim.metrics} every [interval] of simulated time and passes
    each snapshot to [on_sample], building a convergence timeline.  The
    sampler re-arms only while other events remain queued, so it never
    prevents a run-to-exhaustion ([Sim.run] / [Network.settle]) from
    terminating; it goes dormant when the queue drains and resumes (via
    {!Sim.on_wake}) when new work is scheduled.  Take a final snapshot
    explicitly once the run finishes. *)

type t

val start : Sim.t -> interval:Time.span -> on_sample:(Metrics.snapshot -> unit) -> t
(** First sample fires one [interval] after the current instant.
    @raise Invalid_argument if [interval] is not positive. *)

val stop : t -> unit
(** Permanently disable further ticks. *)
