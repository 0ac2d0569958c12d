(** Convergence detection: instruments every decision point (legacy
    Loc-RIBs, controller decisions), keeps each prefix's change history,
    and measures per-prefix convergence of experiment events.  A prefix's history is one byte buffer of varints
    (per change, the time since the prefix's previous change, then the
    AS: about 0.9 words a change), with its count and last instant kept
    beside it. *)

type t

val attach : Network.t -> t
(** Subscribe to every router and the controller.  Attach before running
    the phase you want measured. *)

val record : t -> Net.Ipv4.prefix -> Engine.Time.t -> Net.Asn.t -> unit
(** Log a change of the prefix at an instant by an AS, as the watcher's
    own subscriptions do for every router and controller change.  A
    prefix's instants must not decrease. *)

val last_control_change : t -> Net.Ipv4.prefix -> Engine.Time.t option

val control_changes : t -> Net.Ipv4.prefix -> int
(** Total best-route changes observed for the prefix. *)

val history : t -> Net.Ipv4.prefix -> (Engine.Time.t * Net.Asn.t) list
(** Every change of the prefix, oldest first: the instant and the AS whose
    best path (legacy router) or central decision (SDN member) changed. *)

val exploration_rounds :
  ?gap:Engine.Time.span -> ?since:Engine.Time.t -> t -> Net.Ipv4.prefix -> int
(** Path-exploration waves of the prefix: its distinct change instants at
    or after [since], clustered wherever consecutive instants lie more
    than [gap] (default 10 s, about half the default MRAI) apart.  0 when
    nothing changed. *)

type measurement = {
  prefix : Net.Ipv4.prefix;
  event_time : Engine.Time.t;
  settled_at : Engine.Time.t;
  last_change : Engine.Time.t option;
  convergence : Engine.Time.span option;
  changes : int;
}

val measure :
  ?max_events:int ->
  ?bounded:bool ->
  ?changes_before:int ->
  t ->
  prefix:Net.Ipv4.prefix ->
  event_time:Engine.Time.t ->
  measurement
(** Run the network to quiescence and report the interval from
    [event_time] to the prefix's last control-plane change ([None] when
    the event changed nothing).  Past [max_events] events the run is
    taken as divergent and raises, unless [bounded], which measures
    whatever state the budget reached. *)

val wait_quiet :
  ?step:Engine.Time.span ->
  ?max_wait:Engine.Time.span ->
  quiet:Engine.Time.span ->
  t ->
  [ `Quiet of Engine.Time.t | `Timeout of Engine.Time.t ]
(** Advance the simulation until no control-plane change for [quiet] —
    the detection mode for networks whose event queue never drains
    (keepalives, endless probe streams). *)
