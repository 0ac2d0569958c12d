(** Restartable one-shot timer: the primitive behind BGP MRAI timers and
    the controller's delayed recomputation. *)

type t

val create : ?category:string -> Sim.t -> callback:(unit -> unit) -> t
(** [category] (default ["timer"]) tags the scheduled expiry events for
    the scheduler's per-category accounting. *)

val start : t -> Time.span -> unit
(** (Re)arm the timer: any pending expiry is cancelled first. *)

val start_if_idle : t -> Time.span -> unit
(** Arm only if not already armed — coalesces bursts of triggers. *)

val cancel : t -> unit

val is_armed : t -> bool
