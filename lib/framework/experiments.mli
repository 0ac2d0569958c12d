(** Canned experiments reproducing the paper's evaluation, parameterized
    so tests can run scaled-down instances of the exact code paths
    [hybridsim sweep] runs.

    Every sweep takes an optional [?pool] ({!Engine.Pool.t}): when given,
    the independent [(x, trial)] runs of the sweep are dispatched across
    the pool's domains.  Each run owns its whole mutable world (its
    [Experiment], and through it its [Sim], [Metrics] registry, [Rng]
    streams and [Causal] spans), and results are collected in deterministic
    (x, trial-index) order — so parallel output is bit-identical to the
    sequential run ([?pool] absent, or [jobs = 1]). *)

type event_kind = Withdrawal | Announcement | Failover

val event_to_string : event_kind -> string

type run_result = {
  seconds : float;  (** convergence time of the measured event *)
  changes : int;  (** control-plane best-route changes during it *)
  collector_updates : int;
      (** updates seen by the route collector during the measured event
          (for withdrawal runs: the withdrawal phase only, excluding the
          bootstrap announcement) *)
  restore_mean : float;  (** mean per-AS data-plane restoration (failover) *)
  restore_max : float;
  metrics : Engine.Metrics.snapshot;  (** whole-stack telemetry at run end *)
}

type 'r point = { x : float; results : 'r list }
(** The runs at one value of a sweep's axis, in trial order. *)

type 'r series = { label : string; points : 'r point list }
(** A whole sweep, points in axis order: convergence sweeps hold
    {!run_result}s, loss sweeps {!loss_result}s. *)

val box : run_result point -> Engine.Stats.boxplot
(** Boxplot of the point's convergence seconds.
    @raise Invalid_argument on a point without runs. *)

val with_clique_sdn : n:int -> sdn:int -> Topology.Spec.t -> Topology.Spec.t
(** Centralize the last [sdn] ASes of an [n]-clique (nodes [n-1] down to
    [n-sdn]), so the origin and fail-over anchors (nodes 0 and 1) join
    last. *)

val clique_run :
  n:int -> sdn:int -> event:event_kind -> seed:int -> config:Config.t -> unit -> run_result
(** One convergence measurement on an [n]-clique with [sdn] centralized
    ASes (the origin stays legacy).
    @raise Invalid_argument for [Failover] (use {!failover_run}). *)

val failover_run : n:int -> sdn:int -> seed:int -> config:Config.t -> unit -> run_result
(** Primary-link failure with a longer backup chain; also measures per-AS
    data-plane restoration. *)

val sweep :
  ?pool:Engine.Pool.t ->
  label:string ->
  runs:int ->
  seed:int ->
  float list ->
  (x:float -> seed:int -> 'r) ->
  'r series
(** [sweep ~label ~runs ~seed xs run] is the grid runner every sweep goes
    through: [run ~x ~seed:(seed + 1000 * i)] for each [x] in [xs] and
    each trial [i < runs].  Each run must build its own mutable world;
    with [pool] the runs are dispatched across its domains and collected
    in (x, trial) order, so the result is identical to the sequential one.
    @raise Invalid_argument if [runs < 1]. *)

val fig2_withdrawal :
  ?pool:Engine.Pool.t -> ?n:int -> ?runs:int -> ?seed:int -> ?config:Config.t -> unit ->
  run_result series
(** The paper's Fig. 2 sweep: withdrawal convergence vs SDN fraction. *)

val announcement_sweep :
  ?pool:Engine.Pool.t -> ?n:int -> ?runs:int -> ?seed:int -> ?config:Config.t -> unit ->
  run_result series

val failover_sweep :
  ?pool:Engine.Pool.t -> ?n:int -> ?runs:int -> ?seed:int -> ?config:Config.t -> unit ->
  run_result series

val ablation_recompute_delay :
  ?pool:Engine.Pool.t ->
  ?n:int ->
  ?runs:int ->
  ?seed:int ->
  ?config:Config.t ->
  ?delays_ms:int list ->
  unit ->
  run_result series

val ablation_mrai :
  ?pool:Engine.Pool.t ->
  ?n:int ->
  ?runs:int ->
  ?seed:int ->
  ?config:Config.t ->
  ?mrai_s:int list ->
  sdn:int ->
  unit ->
  run_result series

val ablation_wrate :
  ?pool:Engine.Pool.t ->
  ?n:int ->
  ?runs:int ->
  ?seed:int ->
  ?config:Config.t ->
  sdn:int ->
  unit ->
  run_result series
(** RFC-exempt (x=0) vs Quagga-paced (x=1) withdrawals. *)

val scaling_sweep :
  ?pool:Engine.Pool.t ->
  ?sizes:int list ->
  ?fraction:float ->
  ?runs:int ->
  ?seed:int ->
  ?config:Config.t ->
  unit ->
  run_result series
(** Withdrawal convergence vs clique size at a fixed SDN fraction. *)

val churn_run :
  n:int -> sdn:int -> flap_period_s:float -> seed:int -> config:Config.t -> unit -> run_result
(** Withdrawal convergence while an unrelated AS flaps its prefix: per-peer
    MRAI timers couple the measured prefix to the background churn. *)

(** Deployment-placement strategies for heterogeneous topologies. *)
type placement = Top_degree | Random_choice | Stubs_first

val placement_to_string : placement -> string

val choose_members :
  spec:Topology.Spec.t ->
  k:int ->
  placement:placement ->
  origin:Net.Asn.t ->
  seed:int ->
  Net.Asn.t list

val placement_run :
  spec:Topology.Spec.t ->
  k:int ->
  placement:placement ->
  origin:Net.Asn.t ->
  seed:int ->
  config:Config.t ->
  unit ->
  run_result

val placement_sweep :
  ?pool:Engine.Pool.t ->
  ?tier1:int ->
  ?tier2:int ->
  ?stubs:int ->
  ?ks:int list ->
  ?runs:int ->
  ?seed:int ->
  ?config:Config.t ->
  placement:placement ->
  unit ->
  run_result series
(** Withdrawal convergence vs cluster size on a synthetic Internet-like
    topology, for one placement strategy. *)

val table_size_run :
  n:int -> sdn:int -> background:int -> seed:int -> config:Config.t -> unit -> run_result
(** Negative control: withdrawal convergence with [background] unrelated
    prefixes installed everywhere — should be table-size independent. *)

type scale_result = {
  ases : int;
  links : int;
  prefixes : int;
  sdn_members : int;
  load_updates : int;  (** collector-recorded updates during the load phase *)
  load_seconds : float;  (** host seconds spent in the load phase *)
  updates_per_sec : float;
  load_settled : bool;
      (** the load phase reached quiescence within its event budget *)
  withdrawal : run_result;  (** the measured withdrawal after the load *)
  rib_routes : int;  (** Loc-RIB entries summed over legacy routers *)
  adj_in_routes : int;  (** Adj-RIB-In entries summed over legacy routers *)
  live_words : int;  (** major-heap live words at end of run *)
  peak_words : int;  (** [Gc.top_heap_words] over the whole run *)
  distinct_attrs : int;  (** interned attribute sets (domain-local table) *)
}

val scale_prefix : int -> Net.Ipv4.prefix
(** The [m]-th synthetic load prefix (101.0.0.0/24 onward), disjoint from
    the addressing plan's origin prefixes. *)

val scale_run :
  ?tier1:int ->
  ?tier2:int ->
  ?stubs:int ->
  ?prefixes:int ->
  ?sdn:int ->
  ?load_max_events:int ->
  ?phase_wall_s:float ->
  ?clock:(unit -> float) ->
  seed:int ->
  config:Config.t ->
  unit ->
  scale_result
(** Internet-scale stress: a synthetic CAIDA graph loaded with [prefixes]
    origins spread round-robin across its stubs (event budget
    [load_max_events]; [load_settled] reports whether propagation in fact
    quiesced), then one measured announce + withdrawal of the origin
    stub's own prefix.  [sdn] centralizes that many top-degree ASes.  The
    collector runs in [Counts_only] retention.  [clock] supplies host
    time for the throughput figures (default [Sys.time]; pass
    [Unix.gettimeofday] for wall clock).  [phase_wall_s] adds a
    host-clock deadline per phase (load / announce / withdrawal): at
    Internet scale one batched delivery can carry thousands of prefixes,
    so an event budget alone cannot bound wall time; a phase stopped at
    its deadline counts as unsettled. *)

val scale_sweep :
  ?pool:Engine.Pool.t ->
  ?tier1:int ->
  ?tier2:int ->
  ?stubs:int ->
  ?prefixes:int ->
  ?ks:int list ->
  ?runs:int ->
  ?seed:int ->
  ?config:Config.t ->
  unit ->
  run_result series
(** The convergence-vs-centralization curve at scale: withdrawal
    convergence on a loaded CAIDA graph vs centralized member count
    (top-degree placement). *)

type flap_result = {
  collector_updates_total : int;
  recovery_seconds : float;
  suppressions_total : int;
  blackholed_after_storm : int;
}

val flap_run :
  ?n:int ->
  ?flaps:int ->
  ?gap_s:float ->
  damping:bool ->
  seed:int ->
  config:Config.t ->
  unit ->
  flap_result
(** A flapping origin with or without RFC 2439 damping at the receivers:
    damping trades monitoring-plane churn for recovery latency. *)

type subcluster_result = {
  reachable_before : bool;
  reachable_after_split : bool;
  reachable_after_recovery : bool;
  used_legacy_bridge : bool;
}

val subcluster_resilience : ?seed:int -> ?config:Config.t -> unit -> subcluster_result
(** Two SDN islands lose their intra-cluster bridge and must reach each
    other over the legacy world (the paper's design goal 3). *)

val equal_series : 'r series -> 'r series -> bool
(** Deep structural equality of a whole sweep, NaN-tolerant
    ([Stdlib.compare]-based) — per-run results and metrics snapshots
    included; the parallel-vs-sequential differential check. *)

val pp_series : Format.formatter -> run_result series -> unit

val series_to_csv : run_result series -> string
(** One row per (point, run): label,x,run,seconds,changes,collector_updates. *)

val median_trend : run_result series -> float * float * float
(** (intercept, slope, r²) of the least-squares line through the medians
    — the Fig. 2 "linear reduction" check. *)

(* --- Data-plane loss under convergence ---------------------------------- *)

type loss_result = {
  converge_seconds : float;  (** control-plane convergence of the event *)
  loss_seconds : float;  (** event to first loss-free probe burst *)
  blackhole_seconds : float;  (** event to last burst with a black-holed probe *)
  loop_seconds : float;  (** event to last burst with a looping probe *)
  probes : int;  (** post-event probes injected *)
  lost : int;  (** post-event probes not delivered *)
  max_loss_ratio : float;  (** worst single-burst loss fraction *)
  residual_issues : int;  (** {!Fwd_verify} non-delivered pairs at run end *)
  loss_epochs : Trafficgen.epoch list;  (** post-event bursts, oldest first *)
}

val loss_run :
  ?per_prefix:int ->
  ?interval_ms:int ->
  ?cap_s:float ->
  n:int ->
  sdn:int ->
  seed:int ->
  config:Config.t ->
  unit ->
  loss_result
(** One measured loss run on the fail-over topology: the stub's primary
    path dies, probe bursts ([per_prefix] seeded sources per prefix,
    every [interval_ms] of simulated time) classify the data plane until
    a burst comes back loss-free or [cap_s] passes (censored). *)

val loss_sweep :
  ?pool:Engine.Pool.t ->
  ?n:int ->
  ?runs:int ->
  ?seed:int ->
  ?per_prefix:int ->
  ?interval_ms:int ->
  ?config:Config.t ->
  unit ->
  loss_result series
(** Fig. 2's companion curve: loss / black-hole / loop duration vs SDN
    membership on the fail-over clique.  Runs dispatch through [pool]
    when given; output is bit-identical to the sequential sweep. *)

val loss_sweep_caida :
  ?pool:Engine.Pool.t ->
  ?tier1:int ->
  ?tier2:int ->
  ?stubs:int ->
  ?ks:int list ->
  ?runs:int ->
  ?seed:int ->
  ?per_prefix:int ->
  ?interval_ms:int ->
  ?config:Config.t ->
  unit ->
  loss_result series
(** The same curve on a generated CAIDA graph: the origin is a
    multi-homed stub, the failed link its first provider, members placed
    top-degree. *)

val pp_loss_series : Format.formatter -> loss_result series -> unit

val loss_series_to_csv : loss_result series -> string
(** One row per (point, run) for external plotting. *)
