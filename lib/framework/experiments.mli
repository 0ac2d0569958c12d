(** Canned experiments reproducing the paper's evaluation: single-run
    primitives, the grid runner {!sweep}, and the table {!kinds} of every
    sweep [hybridsim sweep --kind] runs.  Tests run the same rows and
    primitives at small sizes.

    With [?pool] ({!Engine.Pool.t}), {!sweep} and {!sweep_kind} dispatch
    the independent [(x, trial)] runs across the pool's domains.  Each run
    owns its whole mutable world (its [Experiment], and through it its
    [Sim], [Metrics] registry, [Rng] streams and [Causal] spans), and
    results are collected in (x, trial-index) order — so parallel output
    is bit-identical to the sequential run. *)

type event_kind = Withdrawal | Announcement | Failover

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

val churn_run :
  n:int -> sdn:int -> flap_period_s:float -> seed:int -> config:Config.t -> unit -> run_result
(** Withdrawal convergence while an unrelated AS flaps its prefix: per-peer
    MRAI timers couple the measured prefix to the background churn. *)

(** Deployment-placement strategies for heterogeneous topologies. *)
type placement = Top_degree | Random_choice | Stubs_first

val choose_members :
  spec:Topology.Spec.t ->
  k:int ->
  placement:placement ->
  origin:Net.Asn.t ->
  seed:int ->
  Net.Asn.t list

type caida_world = { spec : Topology.Spec.t; stub_asns : Net.Asn.t list }
(** A generated Internet-like graph and its stubs in generation order. *)

val caida_world : tier1:int -> tier2:int -> stubs:int -> seed:int -> caida_world
(** The world the placement rows, [loss:caida] and [hybridsim scale] share:
    {!Topology.Caida.generate} from [seed], generated once per sweep. *)

val placement_run :
  spec:Topology.Spec.t ->
  k:int ->
  placement:placement ->
  origin:Net.Asn.t ->
  seed:int ->
  config:Config.t ->
  unit ->
  run_result
(** Withdrawal convergence of [origin]'s prefix with [k] members placed by
    [placement]; [collector_updates] counts every update since bootstrap. *)

val table_size_run :
  n:int -> sdn:int -> background:int -> seed:int -> config:Config.t -> unit -> run_result
(** Negative control: withdrawal convergence with [background] unrelated
    prefixes installed everywhere — should be table-size independent. *)

type scale_result = {
  load_updates : int;  (** collector-recorded updates during the load phase *)
  load_seconds : float;  (** host seconds spent in the load phase *)
  load_settled : bool;
      (** the load phase reached quiescence within its event budget *)
  withdrawal : run_result;  (** the measured withdrawal after the load *)
  rib_routes : int;  (** Loc-RIB entries over legacy routers after the load *)
  adj_in_routes : int;  (** Adj-RIB-In entries over legacy routers after the load *)
  live_words : int;  (** major-heap live words right after the load *)
  peak_words : int;  (** [Gc.top_heap_words] over the whole run *)
  distinct_attrs : int;
      (** attribute sets live in the domain-local intern set after the
          withdrawal; the set is weak, so this counts the sets the run
          still references (and any the GC has not yet reclaimed), not
          every set it ever built *)
  built_words_per_as : float;
      (** words [Network.create] allocated (minor and major), per AS: the
          network's fixed heap, since nearly all of it survives *)
}

val scale_prefix : int -> Net.Ipv4.prefix
(** The [m]-th synthetic load prefix (101.0.0.0/24 onward), disjoint from
    the addressing plan's origin prefixes. *)

val scale_run :
  ?prefixes:int ->
  ?load_max_events:int ->
  ?clock:(unit -> float) ->
  world:caida_world ->
  k:int ->
  seed:int ->
  config:Config.t ->
  unit ->
  scale_result
(** Internet-scale stress: {!placement_run}'s withdrawal with [k]
    top-degree members, its origin the world's first stub, after a load
    of [prefixes] origins spread round-robin across the stubs.  Every
    phase runs under the event budget [load_max_events]; [load_settled]
    reports whether the load in fact quiesced.  The collector runs in
    [Counts_only] retention, and [withdrawal.collector_updates] counts
    the withdrawal phase only.  [clock] supplies host time for the
    throughput figures (default [Sys.time]; pass [Unix.gettimeofday] for
    wall clock). *)

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
  n:int ->
  sdn:int ->
  seed:int ->
  config:Config.t ->
  unit ->
  loss_result
(** One measured loss run on the fail-over topology: the stub's primary
    path dies, probe bursts ([per_prefix] seeded sources per prefix,
    every [interval_ms] of simulated time) classify the data plane until
    a burst comes back loss-free or 600 s of simulated time pass
    (censored). *)

val loss_run_on :
  ?per_prefix:int ->
  ?interval_ms:int ->
  spec:Topology.Spec.t ->
  origin:Net.Asn.t ->
  peer:Net.Asn.t ->
  seed:int ->
  config:Config.t ->
  unit ->
  loss_result
(** {!loss_run}'s measurement on any topology: [origin]'s prefix is
    announced, then its link to [peer] fails.  The [loss:caida] row runs
    it on the CAIDA world, failing a multi-homed stub's provider link. *)

val pp_loss_series : Format.formatter -> loss_result series -> unit

val loss_series_to_csv : loss_result series -> string
(** One row per (point, run) for external plotting. *)

(* --- The sweep table ------------------------------------------------------ *)

type params = {
  n : int;  (** clique size, for the rows whose world is a clique *)
  seed : int;  (** base seed: trial [i] at each x runs with [seed + 1000 * i] *)
  config : Config.t;
  per_prefix : int;  (** loss rows: seeded probe sources per destination prefix *)
  interval_ms : int;  (** loss rows: simulated ms between post-failure probe bursts *)
}

(** A row's run at one (x, seed), by result type.  The row applies it to
    the sweep's {!params} once, before the grid starts, so it can build a
    shared read-only world there. *)
type measure =
  | Convergence of (params -> x:int -> seed:int -> run_result)
  | Loss of (params -> x:int -> seed:int -> loss_result)

type kind = {
  name : string;  (** the [--kind] value *)
  aliases : string list;
  doc : string;
  label_of : int -> string;  (** series (CSV) label for clique size [n] *)
  axis : int -> int list;  (** x values for clique size [n] *)
  runs : int;  (** default runs per point *)
  min_n : int;  (** smallest clique size the row's runs accept *)
  measure : measure;
}

val kinds : kind list
(** Every sweep, in [--kind] help order. *)

type sweep_result =
  | Convergence_series of run_result series
  | Loss_series of loss_result series

val check_n : kind -> int -> (unit, string) result
(** [Error] when clique size [n] is below the row's [min_n]. *)

val sweep_kind : ?pool:Engine.Pool.t -> ?runs:int -> kind -> params -> sweep_result
(** Run one row's grid through {!sweep}, [runs] (default the row's)
    trials per point.
    @raise Invalid_argument if {!check_n} rejects [params.n], before any run. *)
