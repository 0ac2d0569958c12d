(** Canned experiments reproducing the paper's evaluation: the run
    description {!t} and {!run}, which executes it; the grid runner
    {!sweep}; and the table {!kinds} of every [hybridsim sweep --kind].

    With [?pool] ({!Engine.Pool.t}), {!sweep} and {!sweep_kind} dispatch
    the independent [(x, trial)] runs across the pool's domains.  Each run
    owns its whole mutable world (its [Experiment], and through it its
    [Sim], [Metrics] registry, [Rng] streams and [Causal] spans), and
    results are collected in (x, trial-index) order — so parallel output
    is bit-identical to the sequential run. *)

type run_result = {
  seconds : float;  (** convergence time of the measured event *)
  changes : int;  (** control-plane best-route changes during it *)
  collector_updates : int;
      (** updates seen by the route collector: during the measured event,
          or since boot (the description's {!collector_count}) *)
  restore_mean : float;  (** mean per-AS data-plane restoration ({!Restoration}) *)
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

type scale_result = {
  load_updates : int;  (** collector-recorded updates during the load phase *)
  load_seconds : float;  (** host seconds spent in the load phase *)
  load_settled : bool;
      (** the load phase reached quiescence within its event budget *)
  withdrawal : run_result;  (** the measured event after the load *)
  rib_routes : int;  (** Loc-RIB entries over legacy routers after the load *)
  adj_in_routes : int;  (** Adj-RIB-In entries over legacy routers after the load *)
  live_words : int;  (** major-heap live words right after the load *)
  peak_words : int;  (** [Gc.top_heap_words] over the whole run *)
  distinct_attrs : int;
      (** attribute sets live in the (weak) domain-local intern set after
          the event: the sets the run still references, and any the GC has
          not yet reclaimed *)
  built_words_per_as : float;
      (** words [Network.create] allocated, per AS: nearly all survive *)
}

(** Deployment-placement strategies for heterogeneous topologies. *)
type placement = Top_degree | Random_choice | Stubs_first

val choose_members :
  spec:Topology.Spec.t ->
  k:int ->
  placement:placement ->
  origin:Net.Asn.t ->
  seed:int ->
  Net.Asn.t list
(** [k] ASes other than [origin]: the best connected, the least connected
    (stable in spec order), or a seeded sample. *)

type caida_world = { spec : Topology.Spec.t; stub_asns : Net.Asn.t list }
(** A generated Internet-like graph and its stubs in generation order. *)

val caida_world : tier1:int -> tier2:int -> stubs:int -> seed:int -> caida_world
(** The world the placement rows, [loss:caida] and [hybridsim scale] share:
    {!Topology.Caida.generate} from [seed], generated once per sweep. *)

val scale_prefix : int -> Net.Ipv4.prefix
(** The [m]-th synthetic load prefix (101.0.0.0/24 onward), disjoint from
    the addressing plan's origin prefixes. *)

(** {1 Run descriptions} *)

(** The topology a run builds. *)
type world =
  | Graph of Topology.Spec.t  (** any topology; any of its ASes may join *)
  | Clique of int
      (** the paper's n-clique (ASes 0 .. n-1); ASes 0 and 1 (the origin,
          and the flapper of a churn run) never join *)
  | Failover of Topology.Spec.t
      (** a clique of ASes 0 .. n-1 plus a stub whose primary link enters
          member 0 and whose strictly longer 2-AS backup chain reaches
          member 1; members 0 and 1 never join *)

(** The ASes the run centralizes. *)
type members =
  | Last of int  (** the last [k] of the world's ASes that may join *)
  | Placed of placement * int  (** [k] chosen by {!choose_members} *)

(** The measured event, at the origin. *)
type event =
  | Withdrawal  (** of the origin's announced plan prefix *)
  | Announcement  (** of that prefix, not announced before *)
  | Fail_link of Net.Asn.t  (** of the origin's link to this AS *)

type load = {
  origins : Net.Asn.t list;  (** the load prefixes go round-robin across these *)
  prefixes : int;  (** {!scale_prefix} 0 .. [prefixes - 1] *)
  budget : int;
      (** event bound of the load phase and of each later phase; a phase
          that reaches it stops there instead of raising *)
  clock : unit -> float;  (** host time for [load_seconds] *)
}
(** Internet-scale stress: prefixes originated right after boot.  A run
    with a load keeps the collector in [Counts_only] retention. *)

(** What [collector_updates] counts. *)
type collector_count = Since_event | Since_boot

(** What a run reports. *)
type _ measure =
  | Convergence : run_result measure
  | Restoration : run_result measure
      (** convergence, plus each AS's first reachability of the origin,
          sampled every 100 ms after the event *)
  | Loss : { per_prefix : int; interval_ms : int } -> loss_result measure
      (** [per_prefix] seeded probe sources toward the origin's prefix, a
          burst every [interval_ms] of simulated time after the event until
          one comes back loss-free or 600 s pass (censored) *)
  | Scale : load -> scale_result measure
      (** convergence after the load, plus the load's figures *)

type 'r t = {
  world : world;
  members : members;
  origin : Net.Asn.t;  (** the AS whose plan prefix the run announces *)
  background : Net.Asn.t list;
      (** ASes whose own prefixes are announced and settled first *)
  churn : Scenario.step list;
      (** scheduled once the origin's prefix has settled, just before the
          event; their times count from it *)
  event : event;
  measure : 'r measure;
  collector : collector_count;
  config : Config.t;
  seed : int;
}
(** One run: build the world with its members centralized, boot it,
    announce the background prefixes and settle, run a {!Scale} load,
    announce the origin's prefix and settle (unless the event is that
    announcement), schedule the churn, then measure the event to
    quiescence. *)

val describe :
  ?members:members -> ?origin:Net.Asn.t -> ?config:Config.t -> ?seed:int -> world -> run_result t
(** A run on [world] with no background, load or churn, counting
    collector updates during the event: by default no members,
    {!Config.default} and seed 42.  The origin defaults to the first AS
    ([Graph], [Clique]) or the stub ([Failover]); the event and
    measurement to a {!Withdrawal}'s {!Convergence}, or on [Failover] to
    the primary link's {!Fail_link} and {!Restoration}. *)

val check : 'r t -> (Topology.Spec.t, string) result
(** The world with its members centralized, or why {!run} refuses the
    description: a [Failover] world that is not a clique; more members
    than may join; an origin, background or load AS outside the world; a
    failed link that does not exist. *)

val run : ?on_boot:(Experiment.t -> unit) -> 'r t -> 'r
(** Execute a description; [on_boot] sees the experiment once its
    sessions are up, before anything is announced.  Each phase runs to
    quiescence and raises on divergence, or under a load stops at its
    budget.
    @raise Invalid_argument if {!check} refuses the description. *)

(** {1 Sweeps} *)

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

(** A row's run description at one (x, seed), by result type.  The row
    applies it to the sweep's {!params} once, before the grid starts, so
    it can build a shared read-only world there. *)
type runs =
  | Convergence_runs of (params -> x:int -> seed:int -> run_result t)
  | Loss_runs of (params -> x:int -> seed:int -> loss_result t)

type kind = {
  name : string;  (** the [--kind] value *)
  aliases : string list;
  doc : string;
  label_of : int -> string;  (** series (CSV) label for clique size [n] *)
  axis : int -> int list;  (** x values for clique size [n] *)
  runs : int;  (** default runs per point *)
  min_n : int;  (** smallest clique size the row's runs accept *)
  describe : runs;
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
