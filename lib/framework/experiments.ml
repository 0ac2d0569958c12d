(* Canned experiments reproducing the paper's evaluation.

   Fig. 2: withdrawal convergence on a 16-AS clique vs fraction of
   SDN-controlled ASes, boxplots over 10 seeded runs; plus the
   announcement and fail-over variants §4 mentions, and the ablations
   DESIGN.md commits to.  All are parameterized so tests can run scaled-
   down versions of the same code paths. *)

type event_kind = Withdrawal | Announcement | Failover

let event_to_string = function
  | Withdrawal -> "withdrawal"
  | Announcement -> "announcement"
  | Failover -> "failover"

type run_result = {
  seconds : float; (* convergence time of the measured event *)
  changes : int; (* control-plane best-route changes during it *)
  collector_updates : int; (* updates seen by the route collector *)
  restore_mean : float; (* mean per-AS data-plane restoration (failover) *)
  restore_max : float; (* slowest AS's restoration (failover) *)
  metrics : Engine.Metrics.snapshot; (* whole-stack telemetry at run end *)
}

type 'r point = {
  x : float; (* e.g. SDN fraction *)
  results : 'r list;
}

type 'r series = { label : string; points : 'r point list }

let box p = Engine.Stats.boxplot (List.map (fun r -> r.seconds) p.results)

(* --- Shared run steps ------------------------------------------------------ *)

(* The last [sdn] of an [n]-clique's ASes centralized: node 0 (the origin,
   or the fail-over primary) and node 1 (the backup anchor) join last. *)
let with_clique_sdn ~n ~sdn spec =
  Topology.Spec.with_sdn spec (List.init sdn (fun i -> Topology.Artificial.asn (n - 1 - i)))

(* Announce [origin]'s plan prefix, run to quiescence, return the prefix. *)
let announced exp origin =
  let prefix = Experiment.default_prefix exp origin in
  ignore (Experiment.measure exp ~prefix (fun () -> ignore (Experiment.announce exp origin)));
  prefix

let collector_count exp = Bgp.Collector.event_count (Network.collector (Experiment.network exp))

(* The result of one [measured] event; [collector_updates] counts what the
   collector recorded after its first [since] updates. *)
let result ?(since = 0) exp (measured : Convergence.measurement) =
  {
    seconds = Experiment.convergence_seconds measured;
    changes = measured.Convergence.changes;
    collector_updates = collector_count exp - since;
    restore_mean = nan;
    restore_max = nan;
    metrics = Experiment.final_metrics exp;
  }

(* Withdraw [origin]'s announced [prefix] and measure it to quiescence. *)
let measure_withdrawal ?since exp origin prefix =
  result ?since exp
    (Experiment.measure exp ~prefix (fun () -> ignore (Experiment.withdraw exp origin)))

(* --- Single measured runs ------------------------------------------------ *)

(* One convergence measurement on a clique with [sdn] of the non-origin
   ASes centralized.  The origin AS (node 0) always stays legacy, as in
   the paper's experiment where the withdrawn prefix belongs to the
   legacy world.  For withdrawals, [collector_updates] counts only the
   measured phase, not the bootstrap announcement's churn. *)
let clique_run ~n ~sdn ~event ~seed ~config () =
  if sdn > n - 2 then invalid_arg "Experiments.clique_run: sdn must leave origin + 1 legacy";
  let spec = with_clique_sdn ~n ~sdn (Topology.Artificial.clique n) in
  let exp = Experiment.create ~config ~seed spec in
  let origin = Topology.Artificial.asn 0 in
  match event with
  | Announcement ->
    let prefix = Experiment.default_prefix exp origin in
    result exp (Experiment.measure exp ~prefix (fun () -> ignore (Experiment.announce exp origin)))
  | Withdrawal ->
    let prefix = announced exp origin in
    measure_withdrawal ~since:(collector_count exp) exp origin prefix
  | Failover -> invalid_arg "Experiments.clique_run: use failover_run"

(* Fail-over: a stub's short primary path (into clique member 0) dies and
   the network must fall back to a strictly longer backup chain (into
   member 1).  Legacy clique members hold stale intermediate-length paths
   through each other and explore them MRAI round by round before
   settling on the backup; centralized members skip that exploration.
   [sdn] clique members are centralized — never members 0/1, which anchor
   the primary and backup paths. *)
let failover_run ~n ~sdn ~seed ~config () =
  if sdn > n - 2 then invalid_arg "Experiments.failover_run: too many SDN members";
  let spec =
    with_clique_sdn ~n ~sdn
      (Topology.Artificial.failover_backup_chain ~clique_size:n ~chain_len:2 ())
  in
  let exp = Experiment.create ~config ~seed spec in
  let stub = Topology.Artificial.stub_asn spec in
  let primary = Topology.Artificial.asn 0 in
  let prefix = announced exp stub in
  (* Track per-AS data-plane restoration (the paper's end-to-end video
     interruption): sample forwarding state every 100 ms after the
     failure and record each AS's first instant of renewed reachability
     to the stub. *)
  let network = Experiment.network exp in
  let sim = Experiment.sim exp in
  let watchers = List.filter (fun a -> not (Net.Asn.equal a stub)) (Topology.Spec.asns spec) in
  let restored : (Net.Asn.t, float) Hashtbl.t = Hashtbl.create 16 in
  let event_time = ref Engine.Time.zero in
  let rec sample () =
    List.iter
      (fun src ->
        if not (Hashtbl.mem restored src) && Monitor.reachable network ~src ~dst:stub then
          Hashtbl.replace restored src
            (Engine.Time.to_sec_f (Engine.Time.diff (Engine.Sim.now sim) !event_time)))
      watchers;
    let elapsed = Engine.Time.diff (Engine.Sim.now sim) !event_time in
    if
      Hashtbl.length restored < List.length watchers
      && Engine.Time.(elapsed < Engine.Time.sec 3600)
    then ignore (Engine.Sim.schedule_after sim (Engine.Time.ms 100) sample)
  in
  let measured =
    Experiment.measure exp ~prefix (fun () ->
        event_time := Engine.Sim.now sim;
        Experiment.fail_link exp stub primary;
        sample ())
  in
  let restore_times = Hashtbl.fold (fun _ t acc -> t :: acc) restored [] in
  {
    (result exp measured) with
    restore_mean = Engine.Stats.mean restore_times;
    restore_max = List.fold_left Float.max 0.0 restore_times;
  }

(* --- Sweeps --------------------------------------------------------------- *)

let take_drop k xs =
  let rec go k acc xs =
    if k = 0 then (List.rev acc, xs)
    else match xs with [] -> (List.rev acc, []) | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] xs

(* The parallel experiment runner every sweep and ablation goes through.

   The (x, trial) grid is flattened into one task list and dispatched
   through [pool] when given; each task builds its own [Experiment]
   (and thus its own [Sim]/[Metrics]/[Rng]/[Causal]) so nothing mutable
   crosses a domain boundary.  Results come back from [Engine.Pool.map]
   in submission order, and are regrouped per x here — so the output is
   bit-identical to the sequential run whatever the pool's scheduling.
   Without a pool (or with [jobs = 1]) this is plain [List.map]. *)
let sweep ?pool ~label ~runs ~seed xs run =
  if runs < 1 then invalid_arg "Experiments.sweep: runs must be >= 1";
  let tasks = List.concat_map (fun x -> List.init runs (fun i -> (x, seed + (1000 * i)))) xs in
  let eval (x, seed) = run ~x ~seed in
  let results =
    match pool with
    | Some pool -> Engine.Pool.map pool eval tasks
    | None -> List.map eval tasks
  in
  let rec regroup xs results =
    match xs with
    | [] -> []
    | x :: rest ->
      let mine, others = take_drop runs results in
      { x; results = mine } :: regroup rest others
  in
  { label; points = regroup xs results }

(* 0, 2, 4, ... n-2 SDN members out of n, as in Fig. 2. *)
let sdn_levels n =
  List.init (n / 2) (fun i -> 2 * i)
  |> List.filter (fun k -> k <= n - 2)
  |> List.map float_of_int

(* Fig. 2: withdrawal convergence vs SDN fraction. *)
let fig2_withdrawal ?pool ?(n = 16) ?(runs = 10) ?(seed = 7) ?(config = Config.default) () =
  sweep ?pool ~label:(Fmt.str "fig2-withdrawal-clique%d" n) ~runs ~seed (sdn_levels n)
    (fun ~x ~seed -> clique_run ~n ~sdn:(int_of_float x) ~event:Withdrawal ~seed ~config ())

(* §4: announcement experiments — smaller reductions. *)
let announcement_sweep ?pool ?(n = 16) ?(runs = 10) ?(seed = 11) ?(config = Config.default) () =
  sweep ?pool ~label:(Fmt.str "announcement-clique%d" n) ~runs ~seed (sdn_levels n)
    (fun ~x ~seed -> clique_run ~n ~sdn:(int_of_float x) ~event:Announcement ~seed ~config ())

(* §4: fail-over experiments — smaller reductions. *)
let failover_sweep ?pool ?(n = 16) ?(runs = 10) ?(seed = 13) ?(config = Config.default) () =
  sweep ?pool ~label:(Fmt.str "failover-clique%d" n) ~runs ~seed (sdn_levels n)
    (fun ~x ~seed -> failover_run ~n ~sdn:(int_of_float x) ~seed ~config ())

(* Ablation A1: the controller's delayed-recomputation interval, at a
   fixed 50% deployment. *)
let ablation_recompute_delay ?pool ?(n = 16) ?(runs = 10) ?(seed = 17)
    ?(config = Config.default) ?(delays_ms = [ 0; 500; 2000; 8000 ]) () =
  sweep ?pool ~label:(Fmt.str "ablation-recompute-delay-clique%d" n) ~runs ~seed
    (List.map float_of_int delays_ms) (fun ~x ~seed ->
      let config = Config.with_recompute_delay config (Engine.Time.ms (int_of_float x)) in
      clique_run ~n ~sdn:(n / 2) ~event:Withdrawal ~seed ~config ())

(* Ablation A3: MRAI sensitivity of the 0%-SDN baseline and of a 50%
   deployment. *)
let ablation_mrai ?pool ?(n = 16) ?(runs = 10) ?(seed = 19) ?(config = Config.default)
    ?(mrai_s = [ 5; 15; 30 ]) ~sdn () =
  sweep ?pool ~label:(Fmt.str "ablation-mrai-clique%d-sdn%d" n sdn) ~runs ~seed
    (List.map float_of_int mrai_s) (fun ~x ~seed ->
      let config = Config.with_mrai config (Engine.Time.sec (int_of_float x)) in
      clique_run ~n ~sdn ~event:Withdrawal ~seed ~config ())

(* Ablation A4: RFC-style MRAI (withdrawals exempt, x=0) vs Quagga-style
   (x=1). *)
let ablation_wrate ?pool ?(n = 16) ?(runs = 10) ?(seed = 23) ?(config = Config.default) ~sdn ()
    =
  sweep ?pool ~label:(Fmt.str "ablation-wrate-clique%d-sdn%d" n sdn) ~runs ~seed [ 0.0; 1.0 ]
    (fun ~x ~seed ->
      let bgp = { config.Config.bgp with Bgp.Config.mrai_on_withdrawals = x > 0.5 } in
      clique_run ~n ~sdn ~event:Withdrawal ~seed ~config:{ config with Config.bgp } ())

(* Scaling: withdrawal convergence vs clique size at a fixed deployment
   fraction — does the linear-in-(legacy count) behaviour persist as the
   network grows? *)
let scaling_sweep ?pool ?(sizes = [ 8; 12; 16; 20; 24 ]) ?(fraction = 0.5) ?(runs = 5)
    ?(seed = 37) ?(config = Config.default) () =
  sweep ?pool ~label:(Fmt.str "scaling-withdrawal-f%.2f" fraction) ~runs ~seed
    (List.map float_of_int sizes) (fun ~x ~seed ->
      let n = int_of_float x in
      let sdn = min (int_of_float (float_of_int n *. fraction)) (n - 2) in
      clique_run ~n ~sdn ~event:Withdrawal ~seed ~config ())

(* Convergence under background churn: a second AS flaps its own prefix
   throughout the measurement.  Because MRAI timers are per *peer*, not
   per prefix, background churn keeps the timers armed and the measured
   withdrawal inherits extra pacing delay — centralized members are
   immune to that coupling. *)
let churn_run ~n ~sdn ~flap_period_s ~seed ~config () =
  if sdn > n - 3 then invalid_arg "Experiments.churn_run: need origin + flapper legacy";
  let spec = with_clique_sdn ~n ~sdn (Topology.Artificial.clique n) in
  let exp = Experiment.create ~config ~seed spec in
  let origin = Topology.Artificial.asn 0 in
  let flapper = Topology.Artificial.asn 1 in
  let prefix = announced exp origin in
  (* a finite flap train long enough to cover the measurement *)
  let network = Experiment.network exp in
  let period = Engine.Time.of_sec_f flap_period_s in
  let cycle i =
    let base =
      Engine.Time.add (Network.now network) (Engine.Time.span_scale period (float_of_int i))
    in
    let down = Engine.Time.add base (Engine.Time.span_scale period 0.5) in
    Scenario.
      [
        { at = base; action = Announce (flapper, None) };
        { at = down; action = Withdraw (flapper, None) };
      ]
  in
  Scenario.schedule network (List.concat (List.init 40 cycle));
  measure_withdrawal exp origin prefix

(* --- Deployment placement -------------------------------------------------

   On heterogeneous (Internet-like) topologies it matters *which* ASes
   join the cluster.  Three strategies: the k best-connected ASes, k
   random ASes, k stubs.  The origin never joins. *)

type placement = Top_degree | Random_choice | Stubs_first

let placement_to_string = function
  | Top_degree -> "top-degree"
  | Random_choice -> "random"
  | Stubs_first -> "stubs"

let choose_members ~spec ~k ~placement ~origin ~seed =
  let candidates =
    List.filter (fun a -> not (Net.Asn.equal a origin)) (Topology.Spec.asns spec)
  in
  let degree a = List.length (Topology.Spec.neighbors spec a) in
  match placement with
  | Top_degree ->
    List.stable_sort (fun a b -> Int.compare (degree b) (degree a)) candidates
    |> List.filteri (fun i _ -> i < k)
  | Stubs_first ->
    List.stable_sort (fun a b -> Int.compare (degree a) (degree b)) candidates
    |> List.filteri (fun i _ -> i < k)
  | Random_choice -> Engine.Rng.sample (Engine.Rng.create seed) k candidates

(* Withdrawal convergence with [k] members placed by [placement]. *)
let placement_run ~spec ~k ~placement ~origin ~seed ~config () =
  let members = choose_members ~spec ~k ~placement ~origin ~seed in
  let exp = Experiment.create ~config ~seed (Topology.Spec.with_sdn spec members) in
  measure_withdrawal exp origin (announced exp origin)

(* Sweep k for one strategy on an Internet-like topology.  The spec is
   generated once and shared read-only across (possibly parallel) runs;
   each run derives its own members/Experiment from it. *)
let placement_sweep ?pool ?(tier1 = 3) ?(tier2 = 8) ?(stubs = 20) ?(ks = [ 0; 2; 4; 6; 8 ])
    ?(runs = 5) ?(seed = 53) ?(config = Config.default) ~placement () =
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create seed) in
  let origin = List.hd (Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs) in
  sweep ?pool ~label:(Fmt.str "placement-%s" (placement_to_string placement)) ~runs
    ~seed:(seed + 1) (List.map float_of_int ks) (fun ~x ~seed ->
      placement_run ~spec ~k:(int_of_float x) ~placement ~origin ~seed ~config ())

(* Table-size independence (negative control): withdraw one prefix while
   [background] unrelated prefixes sit in every table.  Since updates are
   per-prefix and the background is quiescent, convergence of the
   withdrawn prefix should not depend on table size. *)
let table_size_run ~n ~sdn ~background ~seed ~config () =
  if background > n - 1 then invalid_arg "Experiments.table_size_run: too many background origins";
  let spec = with_clique_sdn ~n ~sdn (Topology.Artificial.clique n) in
  let exp = Experiment.create ~config ~seed spec in
  (* background prefixes from ASes 1..background *)
  for i = 1 to background do
    ignore (Experiment.announce exp (Topology.Artificial.asn i))
  done;
  ignore (Experiment.settle exp);
  let origin = Topology.Artificial.asn 0 in
  measure_withdrawal exp origin (announced exp origin)

(* --- Internet scale -------------------------------------------------------

   The tentpole stress path: a synthetic CAIDA graph (thousands of ASes)
   loaded with thousands of prefixes spread across its stubs, then one
   measured withdrawal.  The load phase is throughput-bound, not
   convergence-bound: it runs under an explicit event budget so peak
   memory and host time stay proportional to [load_max_events] rather
   than to full global propagation (at full Internet scale every router
   learning every prefix would not fit one process).  [load_settled]
   reports whether the budget in fact reached quiescence — small
   configurations (tests, the smoke alias) do. *)

type scale_result = {
  ases : int;
  links : int;
  prefixes : int;
  sdn_members : int;
  load_updates : int; (* collector-recorded updates during the load phase *)
  load_seconds : float; (* host seconds spent in the load phase *)
  updates_per_sec : float; (* load_updates / load_seconds *)
  load_settled : bool; (* the load phase reached quiescence under its budget *)
  withdrawal : run_result; (* the measured withdrawal after the load *)
  rib_routes : int; (* Loc-RIB entries summed over legacy routers *)
  adj_in_routes : int; (* Adj-RIB-In entries summed over legacy routers *)
  live_words : int; (* major-heap live words after the run (post-compaction) *)
  peak_words : int; (* Gc top_heap_words over the whole run *)
  distinct_attrs : int; (* interned attribute sets (domain-local table) *)
}

(* Run the queue dry under two explicit bounds: an event budget and an
   optional host-clock deadline.  [Network.settle] treats an exhausted
   budget as divergence and raises, but at scale a bounded horizon is the
   intended operating mode.  One batched delivery can carry thousands of
   prefixes — per-event cost varies by four orders of magnitude — so
   events alone cannot bound wall time; the deadline is checked between
   small slices.  Returns [true] iff the queue actually drained
   (quiescence). *)
let bounded_settle ?deadline ?(clock = Sys.time) exp ~budget =
  let sim = Experiment.sim exp in
  let slice = 100 in
  let rec loop remaining =
    if remaining <= 0 then false
    else if (match deadline with Some d -> clock () >= d | None -> false) then false
    else
      match Engine.Sim.run ~max_events:(min slice remaining) sim with
      | Engine.Sim.Exhausted -> true
      | Engine.Sim.Reached_limit -> loop (remaining - slice)
      | Engine.Sim.Reached_time _ -> assert false
  in
  loop budget

(* [Convergence.measure] under the same bounded budget/deadline. *)
let bounded_measure ?deadline ?clock exp ~budget ~prefix action =
  let watcher = Experiment.watcher exp in
  let event_time = Experiment.now exp in
  let changes_before = Convergence.control_changes watcher prefix in
  action ();
  ignore (bounded_settle ?deadline ?clock exp ~budget);
  let last_change =
    match Convergence.last_control_change watcher prefix with
    | Some time when Engine.Time.(time >= event_time) -> Some time
    | Some _ | None -> None
  in
  {
    Convergence.prefix;
    event_time;
    settled_at = Experiment.now exp;
    last_change;
    convergence = Option.map (fun c -> Engine.Time.diff c event_time) last_change;
    changes = Convergence.control_changes watcher prefix - changes_before;
  }

(* Synthetic prefixes for the load phase: 101.0.0.0/24 onward, disjoint
   from the addressing plan's 100.64/10 origin prefixes and 10/8 router
   addresses. *)
let scale_prefix m =
  if m < 0 || m >= 0x9a_0000 then invalid_arg "Experiments.scale_prefix";
  Net.Ipv4.prefix
    (Net.Ipv4.addr_of_octets (101 + (m lsr 16)) ((m lsr 8) land 0xff) (m land 0xff) 0)
    24

let scale_run ?(tier1 = 5) ?(tier2 = 40) ?(stubs = 455) ?(prefixes = 1000) ?(sdn = 0)
    ?(load_max_events = 20_000_000) ?phase_wall_s ?(clock = Sys.time) ~seed ~config () =
  let total = tier1 + tier2 + stubs in
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create seed) in
  let stub_list = Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs in
  let origin = List.hd stub_list in
  let members = choose_members ~spec ~k:sdn ~placement:Top_degree ~origin ~seed in
  let spec = Topology.Spec.with_sdn spec members in
  (* At scale the collector keeps counts and last-update instants only;
     the full event log would dominate the live heap. *)
  let config = { config with Config.collector_retention = Bgp.Collector.Counts_only } in
  let exp = Experiment.create ~config ~seed spec in
  let network = Experiment.network exp in
  let stub_arr = Array.of_list stub_list in
  (* Load: [prefixes] origins round-robin across the stubs, one event
     budget for the whole propagation. *)
  let t0 = clock () in
  let deadline_from t = Option.map (fun w -> t +. w) phase_wall_s in
  let updates_before = collector_count exp in
  for m = 0 to prefixes - 1 do
    Network.originate network stub_arr.(m mod Array.length stub_arr) (scale_prefix m)
  done;
  let load_settled =
    bounded_settle ?deadline:(deadline_from t0) ~clock exp ~budget:load_max_events
  in
  let load_seconds = clock () -. t0 in
  let load_updates = collector_count exp - updates_before in
  let rib_routes, adj_in_routes =
    Net.Asn.Map.fold
      (fun _ r (loc, adj) -> (loc + Bgp.Router.loc_size r, adj + Bgp.Router.adj_in_size r))
      (Network.routers network) (0, 0)
  in
  (* The measured withdrawal: the origin announces its (plan) prefix and
     withdraws it, each phase run to quiescence under the same budget. *)
  let prefix = Experiment.default_prefix exp origin in
  let measure action =
    bounded_measure ?deadline:(deadline_from (clock ())) ~clock exp ~budget:load_max_events
      ~prefix action
  in
  ignore (measure (fun () -> ignore (Experiment.announce exp origin)));
  let since = collector_count exp in
  let withdrawal =
    result ~since exp (measure (fun () -> ignore (Experiment.withdraw exp origin)))
  in
  let stat = Gc.stat () in
  let intern = Bgp.Attrs.intern_stats () in
  {
    ases = total;
    links = List.length (Topology.Spec.links spec);
    prefixes;
    sdn_members = sdn;
    load_updates;
    load_seconds;
    updates_per_sec =
      (if load_seconds > 0.0 then float_of_int load_updates /. load_seconds else nan);
    load_settled;
    withdrawal;
    rib_routes;
    adj_in_routes;
    live_words = stat.Gc.live_words;
    peak_words = stat.Gc.top_heap_words;
    distinct_attrs = intern.Bgp.Attrs.distinct_full;
  }

(* The convergence-vs-centralization curve at scale: the Fig. 2 shape on
   a CAIDA-generated graph with loaded tables, x = centralized member
   count (top-degree placement). *)
let scale_sweep ?pool ?(tier1 = 4) ?(tier2 = 24) ?(stubs = 72) ?(prefixes = 200)
    ?(ks = [ 0; 8; 16; 24 ]) ?(runs = 3) ?(seed = 97) ?(config = Config.default) () =
  sweep ?pool ~label:(Fmt.str "scale-caida%d-p%d" (tier1 + tier2 + stubs) prefixes) ~runs ~seed
    (List.map float_of_int ks) (fun ~x ~seed ->
      (scale_run ~tier1 ~tier2 ~stubs ~prefixes ~sdn:(int_of_float x) ~seed ~config ())
        .withdrawal)

(* --- Flap storm / route-flap damping ------------------------------------ *)

type flap_result = {
  collector_updates_total : int; (* monitoring-plane churn over the storm *)
  recovery_seconds : float; (* convergence after the final re-announcement *)
  suppressions_total : int; (* damping suppressions across all routers *)
  blackholed_after_storm : int; (* routers without the route once quiet *)
}

(* A flapping origin: [flaps] withdraw/re-announce cycles [gap_s] apart on
   a clique, with or without RFC 2439 damping at the receivers.  Damping
   trades churn for availability: suppressed routers stop relaying the
   flaps but keep blackholing until the penalty decays. *)
let flap_run ?(n = 8) ?(flaps = 4) ?(gap_s = 45.0) ~damping ~seed ~config () =
  let config =
    { config with Config.damping = (if damping then Some Bgp.Damping.default_config else None) }
  in
  let spec = Topology.Artificial.clique n in
  let exp = Experiment.create ~config ~seed spec in
  let origin = Topology.Artificial.asn 0 in
  let prefix = announced exp origin in
  let network = Experiment.network exp in
  let sim = Experiment.sim exp in
  let collector = Network.collector network in
  let updates_before = Bgp.Collector.event_count collector in
  let gap = Engine.Time.of_sec_f gap_s in
  let final_event = ref Engine.Time.zero in
  for i = 1 to flaps do
    ignore (Experiment.withdraw exp origin);
    Network.run_until network (Engine.Time.add (Engine.Sim.now sim) gap);
    final_event := Engine.Sim.now sim;
    ignore (Experiment.announce exp origin);
    if i < flaps then Network.run_until network (Engine.Time.add (Engine.Sim.now sim) gap)
  done;
  (* the storm is over; measure recovery of the final announcement *)
  let final_event = !final_event in
  let settled = Network.settle network in
  ignore settled;
  let watcher = Experiment.watcher exp in
  let recovery_seconds =
    match Convergence.last_control_change watcher prefix with
    | Some t when Engine.Time.(t >= final_event) ->
      Engine.Time.to_sec_f (Engine.Time.diff t final_event)
    | Some _ | None -> 0.0
  in
  let suppressions_total =
    List.fold_left
      (fun acc asn ->
        match Network.router network asn with
        | Some r -> (
          match Bgp.Router.damping_state r with
          | Some d -> acc + Bgp.Damping.suppressions d
          | None -> acc)
        | None -> acc)
      0 (Network.asns network)
  in
  let blackholed_after_storm =
    List.length
      (List.filter
         (fun asn ->
           (not (Net.Asn.equal asn origin))
           &&
           match Network.router network asn with
           | Some r -> Bgp.Router.best r prefix = None
           | None -> false)
         (Network.asns network))
  in
  {
    collector_updates_total = Bgp.Collector.event_count collector - updates_before;
    recovery_seconds;
    suppressions_total;
    blackholed_after_storm;
  }

(* --- Sub-cluster resilience (design goal: disjoint sub-clusters survive
   intra-cluster link failure via legacy paths) -------------------------- *)

type subcluster_result = {
  reachable_before : bool;
  reachable_after_split : bool; (* after the intra-cluster bridge died *)
  reachable_after_recovery : bool;
  used_legacy_bridge : bool; (* the post-split path crossed the legacy world *)
}

(* Topology: two SDN islands (a-b, c-d) whose only intra-cluster link is
   b<->c, all four also connected through a legacy backbone.  Traffic
   a -> d uses the cluster; when b<->c dies the controller must fall back
   to a legacy-crossing path rather than blackholing. *)
let subcluster_resilience ?(seed = 29) ?(config = Config.default) () =
  let asn = Topology.Artificial.asn in
  let a, b, c, d = (asn 0, asn 1, asn 2, asn 3) in
  let l1, l2 = (asn 4, asn 5) in
  let nodes =
    List.map (fun x -> Topology.Spec.node x) [ a; b; c; d; l1; l2 ]
  in
  let links =
    [
      Topology.Spec.link a b;
      Topology.Spec.link b c; (* the intra-cluster bridge that will fail *)
      Topology.Spec.link c d;
      Topology.Spec.link b l1;
      Topology.Spec.link l1 l2;
      Topology.Spec.link l2 c;
      Topology.Spec.link a l1;
      Topology.Spec.link d l2;
    ]
  in
  let spec =
    Topology.Spec.with_sdn
      (Topology.Spec.make ~title:"subclusters" ~nodes ~links)
      [ a; b; c; d ]
  in
  let exp = Experiment.create ~config ~seed spec in
  let prefix = announced exp d in
  let reachable_before = Experiment.reachable exp ~src:a ~dst:d in
  ignore (Experiment.measure exp ~prefix (fun () -> Experiment.fail_link exp b c));
  let reachable_after_split = Experiment.reachable exp ~src:a ~dst:d in
  let used_legacy_bridge =
    match Experiment.walk exp ~src:a ~dst:d with
    | Monitor.Delivered path ->
      List.exists (fun hop -> Net.Asn.equal hop l1 || Net.Asn.equal hop l2) path
    | Monitor.Blackhole _ | Monitor.Loop _ | Monitor.Ttl_exceeded _ -> false
  in
  ignore (Experiment.measure exp ~prefix (fun () -> Experiment.recover_link exp b c));
  let reachable_after_recovery = Experiment.reachable exp ~src:a ~dst:d in
  { reachable_before; reachable_after_split; reachable_after_recovery; used_legacy_bridge }

(* --- Equality ------------------------------------------------------------

   Structural equality of sweep outputs — the parallel-vs-sequential
   differential check.  [Stdlib.compare] is used (rather than [=]) so
   NaN fields (restore_mean/restore_max on non-failover runs, unmeasured
   seconds) compare equal to themselves. *)

let equal_series (a : 'r series) (b : 'r series) = Stdlib.compare a b = 0

(* --- Rendering ------------------------------------------------------------ *)

let pp_series ppf s =
  Fmt.pf ppf "@[<v># %s@,%8s %8s %8s %8s %8s %8s %8s@," s.label "x" "min" "q1" "median" "q3"
    "max" "mean";
  List.iter
    (fun p ->
      let b = box p in
      Fmt.pf ppf "%8.1f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f@," p.x b.Engine.Stats.minimum
        b.Engine.Stats.q1 b.Engine.Stats.median b.Engine.Stats.q3 b.Engine.Stats.maximum
        b.Engine.Stats.mean)
    s.points;
  Fmt.pf ppf "@]"

(* CSV export: one row per (point, run) for external plotting — label, x,
   run index, then [row r] under the [columns] header. *)
let to_csv ~columns row s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("label,x,run," ^ columns ^ "\n");
  List.iter
    (fun p ->
      List.iteri
        (fun i r -> Buffer.add_string buf (Fmt.str "%s,%g,%d,%s\n" s.label p.x i (row r)))
        p.results)
    s.points;
  Buffer.contents buf

let series_to_csv =
  to_csv ~columns:"seconds,changes,collector_updates" (fun r ->
      Fmt.str "%.6f,%d,%d" r.seconds r.changes r.collector_updates)

(* The linear-trend check for Fig. 2: slope of median convergence vs SDN
   count, and the fit quality. *)
let median_trend s =
  let pts = List.map (fun p -> (p.x, (box p).Engine.Stats.median)) s.points in
  let intercept, slope = Engine.Stats.linear_fit pts in
  let r2 = Engine.Stats.r_squared pts in
  (intercept, slope, r2)

(* --- Data-plane loss under convergence -----------------------------------

   The paper's user-visible symptom (the "video interruption") measured
   directly: seeded probe bursts fired against the fast-path snapshot
   every [interval_ms] after a link failure, classifying every scheduled
   (src, prefix) pair as delivered / black-holed / looped until the data
   plane carries everything again.  Bursts are pure snapshot walks —
   they inject nothing into the emulation, so the measured control-plane
   convergence is exactly what it would be without probing. *)

type loss_result = {
  converge_seconds : float; (* control-plane convergence of the event *)
  loss_seconds : float; (* event -> first loss-free burst *)
  blackhole_seconds : float; (* event -> last burst with a black-holed probe *)
  loop_seconds : float; (* event -> last burst with a looping probe *)
  probes : int; (* post-event probes injected *)
  lost : int; (* post-event probes not delivered *)
  max_loss_ratio : float; (* worst single-burst loss fraction *)
  residual_issues : int; (* verifier census of non-delivered pairs at run end *)
  loss_epochs : Trafficgen.epoch list; (* post-event bursts, oldest first *)
}

let rec drop k xs = if k <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (k - 1) tl

(* The shared measured core: announce [origin]'s prefix, settle, then
   fail the [origin]-[peer] link and sample probe bursts every
   [interval_ms] until a burst comes back loss-free (or [cap_s] of
   simulated time passes — a censored run, e.g. a single-homed origin
   that can never recover). *)
let loss_run_core ~spec ~origin ~peer ~per_prefix ~interval_ms ~cap_s ~seed ~config () =
  let exp = Experiment.create ~config ~seed spec in
  let prefix = announced exp origin in
  let network = Experiment.network exp in
  let sim = Experiment.sim exp in
  (* only [origin]'s prefix is announced, so probe that one: the loss
     curve is the affected prefix's, not diluted by never-routable
     destinations *)
  let tg = Trafficgen.create ~seed ~dsts:[ origin ] network (Trafficgen.Per_prefix per_prefix) in
  (* pre-event baseline burst: the settled network should carry everything *)
  ignore (Trafficgen.burst tg);
  let baseline_epochs = List.length (Trafficgen.epochs tg) in
  let interval = Engine.Time.ms interval_ms in
  let cap = Engine.Time.of_sec_f cap_s in
  let event_time = ref Engine.Time.zero in
  let rec sample () =
    let e = Trafficgen.burst tg in
    let elapsed = Engine.Time.diff (Engine.Sim.now sim) !event_time in
    if Trafficgen.epoch_lost e > 0 && Engine.Time.(elapsed < cap) then
      ignore (Engine.Sim.schedule_after sim interval sample)
  in
  let measured =
    Experiment.measure exp ~prefix (fun () ->
        event_time := Engine.Sim.now sim;
        Experiment.fail_link exp origin peer;
        sample ())
  in
  let post = drop baseline_epochs (Trafficgen.epochs tg) in
  let rel (e : Trafficgen.epoch) =
    Engine.Time.to_sec_f (Engine.Time.diff e.Trafficgen.at !event_time)
  in
  let loss_seconds =
    match List.find_opt (fun e -> Trafficgen.epoch_lost e = 0) post with
    | Some e -> rel e
    | None -> ( (* censored: loss never cleared within the cap *)
      match List.rev post with e :: _ -> rel e | [] -> 0.0)
  in
  let last_with f =
    List.fold_left (fun acc e -> if f e then rel e else acc) 0.0 post
  in
  let blackhole_seconds = last_with (fun e -> e.Trafficgen.blackholed > 0) in
  let loop_seconds = last_with (fun e -> e.Trafficgen.looped > 0) in
  let probes = List.fold_left (fun a e -> a + e.Trafficgen.injected) 0 post in
  let lost = List.fold_left (fun a e -> a + Trafficgen.epoch_lost e) 0 post in
  let max_loss_ratio = List.fold_left (fun a e -> Float.max a (Trafficgen.loss_ratio e)) 0.0 post in
  let residual_issues =
    List.length (Fwd_verify.verify ~dsts:[ origin ] network).Fwd_verify.issues
  in
  {
    converge_seconds = Experiment.convergence_seconds measured;
    loss_seconds;
    blackhole_seconds;
    loop_seconds;
    probes;
    lost;
    max_loss_ratio;
    residual_issues;
    loss_epochs = post;
  }

(* Loss on the fail-over topology: the stub's primary path dies and the
   network must shift onto the strictly longer backup chain; [sdn] clique
   members (never the primary/backup anchors) are centralized. *)
let loss_run ?(per_prefix = 2) ?(interval_ms = 100) ?(cap_s = 600.0) ~n ~sdn ~seed ~config () =
  if sdn > n - 2 then invalid_arg "Experiments.loss_run: too many SDN members";
  let spec =
    with_clique_sdn ~n ~sdn
      (Topology.Artificial.failover_backup_chain ~clique_size:n ~chain_len:2 ())
  in
  let stub = Topology.Artificial.stub_asn spec in
  let primary = Topology.Artificial.asn 0 in
  loss_run_core ~spec ~origin:stub ~peer:primary ~per_prefix ~interval_ms ~cap_s ~seed ~config
    ()

(* Fig. 2's companion curve: data-plane loss duration vs SDN membership
   on the fail-over clique. *)
let loss_sweep ?pool ?(n = 16) ?(runs = 5) ?(seed = 43) ?(per_prefix = 2) ?(interval_ms = 100)
    ?(config = Config.default) () =
  sweep ?pool ~label:(Fmt.str "loss-failover-clique%d" n) ~runs ~seed (sdn_levels n)
    (fun ~x ~seed -> loss_run ~per_prefix ~interval_ms ~n ~sdn:(int_of_float x) ~seed ~config ())

(* The same curve on an Internet-like CAIDA graph: the origin is a
   multi-homed stub (so the failure is survivable), the failed link its
   first provider, members placed top-degree.  The spec is generated
   once from the base seed and shared read-only across runs. *)
let loss_sweep_caida ?pool ?(tier1 = 3) ?(tier2 = 8) ?(stubs = 20) ?(ks = [ 0; 2; 4; 6; 8 ])
    ?(runs = 3) ?(seed = 61) ?(per_prefix = 2) ?(interval_ms = 100) ?(config = Config.default)
    () =
  let spec0 = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create seed) in
  let stub_list = Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs in
  let origin =
    match
      List.find_opt (fun a -> List.length (Topology.Spec.neighbors spec0 a) >= 2) stub_list
    with
    | Some a -> a
    | None -> List.hd stub_list
  in
  let peer = List.hd (Topology.Spec.neighbors spec0 origin) in
  sweep ?pool ~label:(Fmt.str "loss-caida%d" (tier1 + tier2 + stubs)) ~runs ~seed:(seed + 1)
    (List.map float_of_int ks) (fun ~x ~seed ->
      let members =
        choose_members ~spec:spec0 ~k:(int_of_float x) ~placement:Top_degree ~origin ~seed
      in
      let spec = Topology.Spec.with_sdn spec0 members in
      loss_run_core ~spec ~origin ~peer ~per_prefix ~interval_ms ~cap_s:600.0 ~seed ~config ())

let pp_loss_series ppf s =
  Fmt.pf ppf "@[<v># %s@,%8s %10s %10s %10s %10s %10s@," s.label "x" "loss_s" "bh_s"
    "loop_s" "maxloss" "converge";
  List.iter
    (fun p ->
      let mean f = Engine.Stats.mean (List.map f p.results) in
      Fmt.pf ppf "%8.1f %10.2f %10.2f %10.2f %10.4f %10.2f@," p.x
        (mean (fun r -> r.loss_seconds))
        (mean (fun r -> r.blackhole_seconds))
        (mean (fun r -> r.loop_seconds))
        (mean (fun r -> r.max_loss_ratio))
        (mean (fun r -> r.converge_seconds)))
    s.points;
  Fmt.pf ppf "@]"

let loss_series_to_csv =
  to_csv
    ~columns:
      "converge_seconds,loss_seconds,blackhole_seconds,loop_seconds,probes,lost,max_loss_ratio,residual_issues"
    (fun r ->
      Fmt.str "%.6f,%.6f,%.6f,%.6f,%d,%d,%.6f,%d" r.converge_seconds r.loss_seconds
        r.blackhole_seconds r.loop_seconds r.probes r.lost r.max_loss_ratio r.residual_issues)
