(** Seeded chaos campaigns: randomized fault schedules executed against a
    fresh network, an invariant oracle at every quiescent point, and
    greedy minimization of failing schedules.  Everything is driven by
    deterministic RNG streams, so a campaign report (and its MD5 digest)
    is bit-identical across invocations of the same seed. *)

type event = { at : Engine.Time.t; heal_at : Engine.Time.t; fault : Scenario.action }
(** A fault is a crash, fail-link, flap, loss-burst, ctrl partition or
    crash-head action; [heal_at] is when its heal runs (a flap heals
    itself and ends at [heal_at]). *)

type schedule = { index : int; events : event list }

val pp_fault : Format.formatter -> Scenario.action -> unit
(** The campaign-report wording: [crash], [link-down], [flap … xN],
    [loss-burst], [ctrl-partition], [head-crash]. *)

val pp_event : Format.formatter -> event -> unit

val steps : event -> Scenario.step list
(** The event as scenario steps, injection then heal: a flap's
    {!Scenario.expand}ed train, otherwise the fault and its heal
    (restart, recover-link, loss-heal, recover-ctrl or restart-head). *)

val default_spec : unit -> Topology.Spec.t
(** The 8-AS clique with a 3-member SDN sub-cluster. *)

val generate : spec:Topology.Spec.t -> rng:Engine.Rng.t -> int -> schedule
(** Draw a random fault schedule (1–4 faults, disjoint targets, injected
    in [8 s, 14 s], fully healed). *)

(* --- Invariant oracle --- *)

type violation = { invariant : string; detail : string }

val check_invariants : Network.t -> violation list
(** Interrogate a (quiescent) network: no flow rule pointing at a
    crashed node or down link, RIB contents consistent with session FSM
    state, and a data-plane snapshot with no forwarding loops that
    agrees with the reference walker ({!Fwd_verify}). *)

val render_state : Network.t -> string
(** The deterministic control/data-plane rendering behind
    {!state_digest} (no wall-clock fields, no traffic counters). *)

(* --- Execution --- *)

type run_result = {
  schedule : schedule;
  quiesced : bool;  (** control plane went quiet before the 180 s limit *)
  violations : violation list;
  digest : string;  (** {!state_digest} at the quiescent point *)
  flight : string list;
      (** the causal flight recorder ({!Engine.Causal.flight_lines}),
          auto-dumped when [violations <> []]; empty on clean runs *)
}

val execute :
  ?fallback:bool -> ?spec:Topology.Spec.t -> seed:int -> schedule -> run_result
(** Run one schedule: build the network ({!Config.failure_test}; with
    [~fallback:false] the switches' legacy fallback is disabled),
    converge, inject, heal, wait for quiet, check invariants. *)

val minimize : ?fallback:bool -> ?spec:Topology.Spec.t -> seed:int -> schedule -> schedule
(** Greedily drop faults while the schedule still produces a violation:
    the result is a locally minimal reproducer.  Returns the input
    schedule unchanged when it does not fail. *)

(* --- Campaign --- *)

type report = {
  seed : int;
  runs : int;
  fallback : bool;
  results : run_result list;
  campaign_digest : string;  (** MD5 over all rendered results *)
}

val run_campaign :
  ?fallback:bool -> ?spec:Topology.Spec.t -> seed:int -> runs:int -> unit -> report

val render_result : run_result -> string

val render_report : report -> string
