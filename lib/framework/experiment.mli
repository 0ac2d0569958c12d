(** The experiment lifecycle API: build a topology, bring BGP up,
    announce/withdraw prefixes, fail/recover links, measure convergence —
    the paper's Mininet-BGP command extensions. *)

type t

val create : ?config:Config.t -> ?seed:int -> Topology.Spec.t -> t
(** Build the emulation, open all sessions and run to quiescence.  No
    prefix is originated yet. *)

val boot : Network.t -> t
(** {!create}'s second half: attach the convergence watcher, open all
    sessions and run to quiescence. *)

val network : t -> Network.t

val watcher : t -> Convergence.t

val sim : t -> Engine.Sim.t

val now : t -> Engine.Time.t

val final_metrics : t -> Engine.Metrics.snapshot
(** The registry frozen at the current simulated instant. *)

val default_prefix : t -> Net.Asn.t -> Net.Ipv4.prefix

val announce : ?prefix:Net.Ipv4.prefix -> t -> Net.Asn.t -> Net.Ipv4.prefix
(** Originate (default prefix unless given); returns the prefix used. *)

val withdraw : ?prefix:Net.Ipv4.prefix -> t -> Net.Asn.t -> Net.Ipv4.prefix

val fail_link : t -> Net.Asn.t -> Net.Asn.t -> unit

val recover_link : t -> Net.Asn.t -> Net.Asn.t -> unit

val settle : ?max_events:int -> t -> Engine.Time.t

val measure :
  ?max_events:int ->
  ?bounded:bool ->
  t ->
  prefix:Net.Ipv4.prefix ->
  (unit -> unit) ->
  Convergence.measurement
(** Perform the action and run to quiescence, measuring the prefix's
    convergence from the moment of the action ({!Convergence.measure}). *)

val convergence_seconds : Convergence.measurement -> float
(** NaN when the event changed nothing. *)

val reachable : t -> src:Net.Asn.t -> dst:Net.Asn.t -> bool

val walk : t -> src:Net.Asn.t -> dst:Net.Asn.t -> Monitor.outcome
