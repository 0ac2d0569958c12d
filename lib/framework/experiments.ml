(* Canned experiments reproducing the paper's evaluation.

   Fig. 2: withdrawal convergence on a 16-AS clique vs fraction of
   SDN-controlled ASes, boxplots over 10 seeded runs; plus the
   announcement and fail-over variants §4 mentions, and the ablations
   DESIGN.md commits to.  Every sweep is one row of [kinds] (the table at
   the end of this file) over the single-run primitives defined first;
   tests run the same rows and primitives at small sizes. *)

type event_kind = Withdrawal | Announcement | Failover

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

(* The fail-over topology: a stub's primary provider is clique member 0,
   and a 2-AS backup chain reaches member 1; returns the spec, the stub
   and the primary.  [sdn] members are centralized, never 0 or 1. *)
let failover_world ~n ~sdn =
  if sdn > n - 2 then invalid_arg "Experiments: fail-over runs keep clique members 0 and 1 legacy";
  let chain = Topology.Artificial.failover_backup_chain ~clique_size:n ~chain_len:2 () in
  let spec = with_clique_sdn ~n ~sdn chain in
  (spec, Topology.Artificial.stub_asn spec, Topology.Artificial.asn 0)

(* Fail-over: a stub's short primary path (into clique member 0) dies and
   the network must fall back to a strictly longer backup chain (into
   member 1).  Legacy clique members hold stale intermediate-length paths
   through each other and explore them MRAI round by round before
   settling on the backup; centralized members skip that exploration.
   [sdn] clique members are centralized — never members 0/1, which anchor
   the primary and backup paths. *)
let failover_run ~n ~sdn ~seed ~config () =
  let spec, stub, primary = failover_world ~n ~sdn in
  let exp = Experiment.create ~config ~seed spec in
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
    Array.of_list
      (match pool with
      | Some pool -> Engine.Pool.map pool eval tasks
      | None -> List.map eval tasks)
  in
  let point j x = { x; results = List.init runs (fun i -> results.((j * runs) + i)) } in
  { label; points = List.mapi point xs }

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

(* --- Deployment placement on Internet-like graphs -------------------------

   On heterogeneous (Internet-like) topologies it matters *which* ASes
   join the cluster.  Three strategies: the k best-connected ASes, k
   random ASes, k stubs.  The origin never joins.  The placement rows and
   [hybridsim scale] share one world (a CAIDA-style graph generated once
   from the base seed) and one withdrawal run ([caida_run]); scale runs
   add a prefix load in front of it. *)

type placement = Top_degree | Random_choice | Stubs_first

let placement_to_string = function
  | Top_degree -> "top-degree"
  | Random_choice -> "random"
  | Stubs_first -> "stubs"

let choose_members ~spec ~k ~placement ~origin ~seed =
  let candidates =
    List.filter (fun a -> not (Net.Asn.equal a origin)) (Topology.Spec.asns spec)
  in
  let degree = Topology.Spec.degree spec in
  let ranked order =
    List.map (fun a -> (degree a, a)) candidates
    |> List.stable_sort (fun (da, _) (db, _) -> order da db)
    |> List.filteri (fun i _ -> i < k)
    |> List.map snd
  in
  match placement with
  | Top_degree -> ranked (fun da db -> Int.compare db da)
  | Stubs_first -> ranked Int.compare
  | Random_choice -> Engine.Rng.sample (Engine.Rng.create seed) k candidates

type caida_world = { spec : Topology.Spec.t; stub_asns : Net.Asn.t list }

let caida_world ~tier1 ~tier2 ~stubs ~seed =
  {
    spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create seed);
    stub_asns = Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs;
  }

type scale_result = {
  load_updates : int; (* collector-recorded updates during the load phase *)
  load_seconds : float; (* host seconds spent in the load phase *)
  load_settled : bool; (* the load phase reached quiescence under its budget *)
  withdrawal : run_result; (* the measured withdrawal after the load *)
  rib_routes : int; (* Loc-RIB entries over legacy routers after the load *)
  adj_in_routes : int; (* Adj-RIB-In entries over legacy routers after the load *)
  live_words : int; (* major-heap live words right after the load *)
  peak_words : int; (* Gc top_heap_words over the whole run *)
  distinct_attrs : int; (* live sets in the domain-local (weak) intern set *)
  built_words_per_as : float; (* words Network.create allocated, per AS *)
}

(* Words the calling domain has allocated so far, minor and major. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The one CAIDA withdrawal run: [k] members placed by [placement] on
   [spec], [load] run on the fresh experiment (its result is returned),
   then [origin]'s plan prefix announced and withdrawn.  Each phase runs
   to quiescence and raises on divergence ([Network.settle]), or, given a
   [budget], stops after that many events: the scale path's horizon.
   [load] also learns the words [Network.create] allocated. *)
let caida_run ?budget ~load ~spec ~k ~placement ~origin ~seed ~config () =
  let members = choose_members ~spec ~k ~placement ~origin ~seed in
  let spec = Topology.Spec.with_sdn spec members in
  let before = allocated_words () in
  let network = Network.create ~config ~seed spec in
  let built = allocated_words () -. before in
  let exp = Experiment.boot network in
  let loaded = load ~built exp in
  let prefix = Experiment.default_prefix exp origin in
  let measure action =
    Experiment.measure ?max_events:budget ~bounded:(Option.is_some budget) exp ~prefix action
  in
  ignore (measure (fun () -> ignore (Experiment.announce exp origin)));
  let since = collector_count exp in
  let withdrawn = measure (fun () -> ignore (Experiment.withdraw exp origin)) in
  (exp, loaded, result ~since exp withdrawn)

(* Withdrawal convergence with [k] members placed by [placement]. *)
let placement_run ~spec ~k ~placement ~origin ~seed ~config () =
  let exp, (), r =
    caida_run ~load:(fun ~built:_ _ -> ()) ~spec ~k ~placement ~origin ~seed ~config ()
  in
  (* the committed placement CSVs count every update since bootstrap *)
  { r with collector_updates = collector_count exp }

(* --- Internet scale -------------------------------------------------------

   The placement run on a large CAIDA world, with thousands of load
   prefixes spread across its stubs before the measured withdrawal.  The
   event budget bounds peak memory and host time; [load_settled] reports
   whether the load in fact quiesced, as small configurations do. *)

(* Synthetic prefixes for the load phase: 101.0.0.0/24 onward, disjoint
   from the addressing plan's 100.64/10 origin prefixes and 10/8 router
   addresses. *)
let scale_prefix m =
  if m < 0 || m >= 0x9a_0000 then invalid_arg "Experiments.scale_prefix";
  Net.Ipv4.prefix
    (Net.Ipv4.addr_of_octets (101 + (m lsr 16)) ((m lsr 8) land 0xff) (m land 0xff) 0)
    24

let scale_run ?(prefixes = 1000) ?(load_max_events = 20_000_000) ?(clock = Sys.time) ~world ~k
    ~seed ~config () =
  let stubs = Array.of_list world.stub_asns in
  (* the load phase; the withdrawal and the run's peak heap complete its figures *)
  let load ~built exp =
    let network = Experiment.network exp in
    let t0 = clock () in
    let updates_before = collector_count exp in
    for m = 0 to prefixes - 1 do
      Network.originate network stubs.(m mod Array.length stubs) (scale_prefix m)
    done;
    let drained = Engine.Sim.run ~max_events:load_max_events (Experiment.sim exp) in
    let load_seconds = clock () -. t0 in
    let load_updates = collector_count exp - updates_before in
    let rib_routes, adj_in_routes =
      Net.Asn.Map.fold
        (fun _ r (loc, adj) -> (loc + Bgp.Router.loc_size r, adj + Bgp.Router.adj_in_size r))
        (Network.routers network) (0, 0)
    in
    (* while the loaded experiment is still reachable *)
    let live_words = (Gc.stat ()).Gc.live_words in
    fun withdrawal ->
      {
        load_updates;
        load_seconds;
        load_settled = drained = Engine.Sim.Exhausted;
        withdrawal;
        rib_routes;
        adj_in_routes;
        live_words;
        peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
        distinct_attrs = (Bgp.Attrs.intern_stats ()).Bgp.Attrs.distinct_full;
        built_words_per_as = built /. float_of_int (Topology.Spec.node_count world.spec);
      }
  in
  (* At scale the collector keeps counts and last-update instants only;
     the full event log would dominate the live heap. *)
  let config = { config with Config.collector_retention = Bgp.Collector.Counts_only } in
  let _, finish, withdrawal =
    caida_run ~budget:load_max_events ~load ~spec:world.spec ~k ~placement:Top_degree
      ~origin:(List.hd world.stub_asns) ~seed ~config ()
  in
  finish withdrawal

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

(* The measured loss run on any topology: announce [origin]'s prefix,
   settle, then fail the [origin]-[peer] link and sample probe bursts
   every [interval_ms] until a burst comes back loss-free (or 600 s of
   simulated time pass — a censored run, e.g. a single-homed origin that
   can never recover). *)
let loss_run_on ?(per_prefix = 2) ?(interval_ms = 100) ~spec ~origin ~peer ~seed ~config () =
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
  let cap = Engine.Time.sec 600 in
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
  let post = List.filteri (fun i _ -> i >= baseline_epochs) (Trafficgen.epochs tg) in
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
let loss_run ?per_prefix ?interval_ms ~n ~sdn ~seed ~config () =
  let spec, stub, primary = failover_world ~n ~sdn in
  loss_run_on ?per_prefix ?interval_ms ~spec ~origin:stub ~peer:primary ~seed ~config ()

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

(* --- The sweep table ------------------------------------------------------

   Every [hybridsim sweep --kind] is one row: its name, the CSV label and
   x axis as functions of the clique size [-n], its default run count,
   the smallest [-n] its runs accept, and the run at one (x, seed).  A
   row's run is applied to the sweep's parameters once, before the grid
   starts, so a row can build a shared read-only world there. *)

type params = { n : int; seed : int; config : Config.t; per_prefix : int; interval_ms : int }

type measure =
  | Convergence of (params -> x:int -> seed:int -> run_result)
  | Loss of (params -> x:int -> seed:int -> loss_result)

type kind = {
  name : string;
  aliases : string list;
  doc : string;
  label_of : int -> string;
  axis : int -> int list;
  runs : int;
  min_n : int;
  measure : measure;
}

type sweep_result = Convergence_series of run_result series | Loss_series of loss_result series

let row ?(aliases = []) ?(min_n = 2) ~runs name doc label_of axis measure =
  { name; aliases; doc; label_of; axis; runs; min_n; measure }

let kinds =
  let clique name n = Fmt.str "%s-clique%d" name n in
  let fixed xs _ = xs in
  let upto step limit = List.init ((limit / step) + 1) (fun i -> step * i) in
  (* 0, 2, 4, ... n-2 SDN members out of n, as in Fig. 2 *)
  let sdn_levels n = upto 2 (n - 2) in
  (* half the clique centralized: n >= 3 keeps the origin and one more AS legacy *)
  let half p = p.n / 2 in
  let withdrawal p ~sdn ~seed config = clique_run ~n:p.n ~sdn ~event:Withdrawal ~seed ~config () in
  let scaling name ~fraction =
    row name ~runs:5
      (Fmt.str "withdrawal vs clique size 8..24 at %.0f%% SDN (-n unused)" (fraction *. 100.0))
      (fun _ -> Fmt.str "scaling-withdrawal-f%.2f" fraction)
      (fixed [ 8; 12; 16; 20; 24 ])
      (Convergence
         (fun p ~x:n ~seed ->
           let sdn = min (int_of_float (float_of_int n *. fraction)) (n - 2) in
           withdrawal { p with n } ~sdn ~seed p.config))
  in
  let mrai name ~halved =
    row name ~runs:10 ~min_n:(if halved then 3 else 2)
      (Fmt.str "MRAI 5, 15 and 30 s at %d%% SDN" (if halved then 50 else 0))
      (fun n -> Fmt.str "%s-sdn%d" (clique "ablation-mrai" n) (if halved then n / 2 else 0))
      (fixed [ 5; 15; 30 ])
      (Convergence
         (fun p ~x ~seed ->
           let sdn = if halved then half p else 0 in
           withdrawal p ~sdn ~seed (Config.with_mrai p.config (Engine.Time.sec x))))
  in
  (* the CAIDA rows' world: a 31-AS graph from the base seed; their runs
     take the next seed *)
  let caida31 p = caida_world ~tier1:3 ~tier2:8 ~stubs:20 ~seed:p.seed in
  let placement placement =
    let name = placement_to_string placement in
    row ("placement:" ^ name)
      ~aliases:(if placement = Top_degree then [ "placement" ] else [])
      ~runs:5
      (Fmt.str "withdrawal vs k = 0..8 members placed %s on a 31-AS CAIDA-style graph (-n unused)"
         name)
      (fun _ -> "placement-" ^ name)
      (fixed [ 0; 2; 4; 6; 8 ])
      (Convergence
         (fun p ->
           let world = caida31 p in
           let origin = List.hd world.stub_asns in
           fun ~x ~seed ->
             placement_run ~spec:world.spec ~k:x ~placement ~origin ~seed:(seed + 1)
               ~config:p.config ()))
  in
  [
    row "fig2" ~aliases:[ "withdraw" ] ~runs:10
      "the paper's Fig. 2: withdrawal vs SDN members 0, 2, .., n-2" (clique "fig2-withdrawal")
      sdn_levels
      (Convergence (fun p ~x ~seed -> withdrawal p ~sdn:x ~seed p.config));
    row "announce" ~runs:10 "announcement vs SDN members" (clique "announcement") sdn_levels
      (Convergence
         (fun p ~x ~seed ->
           clique_run ~n:p.n ~sdn:x ~event:Announcement ~seed ~config:p.config ()));
    row "failover" ~runs:10 "fail-over onto a longer backup chain vs SDN members"
      (clique "failover") sdn_levels
      (Convergence (fun p ~x ~seed -> failover_run ~n:p.n ~sdn:x ~seed ~config:p.config ()));
    scaling "scaling" ~fraction:0.5;
    scaling "scaling:0" ~fraction:0.0;
    row "ablation:delay" ~runs:10 ~min_n:3 "controller recompute delay 0..8 s at 50% SDN"
      (clique "ablation-recompute-delay")
      (fixed [ 0; 500; 2000; 8000 ])
      (Convergence
         (fun p ~x ~seed ->
           withdrawal p ~sdn:(half p) ~seed
             (Config.with_recompute_delay p.config (Engine.Time.ms x))));
    mrai "ablation:mrai" ~halved:false;
    mrai "ablation:mrai:half" ~halved:true;
    row "ablation:wrate" ~runs:10 "RFC-exempt (x=0) vs Quagga-paced (x=1) withdrawals at 0% SDN"
      (fun n -> clique "ablation-wrate" n ^ "-sdn0")
      (fixed [ 0; 1 ])
      (Convergence
         (fun p ~x ~seed ->
           let bgp = { p.config.Config.bgp with Bgp.Config.mrai_on_withdrawals = x = 1 } in
           withdrawal p ~sdn:0 ~seed { p.config with Config.bgp }));
    row "ablation:speaker" ~runs:5 ~min_n:3 "cluster speaker MRAI off (x=0) vs on (x=1) at 50% SDN"
      (clique "ablation-speaker-mrai")
      (fixed [ 0; 1 ])
      (Convergence
         (fun p ~x ~seed ->
           let speaker_mrai = if x = 1 then Some Bgp.Config.default else None in
           withdrawal p ~sdn:(half p) ~seed { p.config with Config.speaker_mrai }));
    row "churn-load" ~runs:1 ~min_n:3 "withdrawal beside a flapping neighbour vs SDN members"
      (clique "churn-load")
      (fun n -> upto 4 (n - 3))
      (Convergence
         (fun p ~x ~seed -> churn_run ~n:p.n ~sdn:x ~flap_period_s:20.0 ~seed ~config:p.config ()));
    row "table-size" ~runs:1 "withdrawal vs background prefixes (a negative control)"
      (clique "table-size")
      (fun n -> upto 5 (n - 1))
      (Convergence
         (fun p ~x ~seed -> table_size_run ~n:p.n ~sdn:0 ~background:x ~seed ~config:p.config ()));
    placement Top_degree;
    placement Random_choice;
    placement Stubs_first;
    row "loss" ~runs:5 "data-plane loss vs SDN members on the fail-over clique"
      (clique "loss-failover") sdn_levels
      (Loss
         (fun p ~x ~seed ->
           loss_run ~per_prefix:p.per_prefix ~interval_ms:p.interval_ms ~n:p.n ~sdn:x ~seed
             ~config:p.config ()));
    row "loss:delay" ~runs:5 ~min_n:3
      "data-plane loss vs controller recompute delay 0..8 s at n-2 SDN members"
      (clique "loss-recompute-delay")
      (fixed [ 0; 500; 2000; 8000 ])
      (Loss
         (fun p ~x ~seed ->
           loss_run ~per_prefix:p.per_prefix ~interval_ms:p.interval_ms ~n:p.n ~sdn:(p.n - 2) ~seed
             ~config:(Config.with_recompute_delay p.config (Engine.Time.ms x))
             ()));
    (* the first multi-homed stub loses its first provider link, so the
       failure is survivable *)
    row "loss:caida" ~runs:3
      "data-plane loss vs k top-degree members on the placement graph, failing a stub's \
       provider link (-n unused)"
      (fun _ -> "loss-caida31")
      (fixed [ 0; 2; 4; 6; 8 ])
      (Loss
         (fun p ->
           let { spec; stub_asns } = caida31 p in
           let multihomed a = Topology.Spec.degree spec a >= 2 in
           let origin =
             Option.value (List.find_opt multihomed stub_asns) ~default:(List.hd stub_asns)
           in
           let peer = List.hd (Topology.Spec.neighbors spec origin) in
           fun ~x ~seed ->
             let seed = seed + 1 in
             let members = choose_members ~spec ~k:x ~placement:Top_degree ~origin ~seed in
             loss_run_on ~per_prefix:p.per_prefix ~interval_ms:p.interval_ms
               ~spec:(Topology.Spec.with_sdn spec members) ~origin ~peer ~seed ~config:p.config
               ()));
  ]

let check_n kind n =
  if n >= kind.min_n then Ok () else Error (Fmt.str "--kind %s needs -n >= %d" kind.name kind.min_n)

let sweep_kind ?pool ?runs kind p =
  Result.iter_error (fun msg -> invalid_arg ("Experiments.sweep_kind: " ^ msg)) (check_n kind p.n);
  let runs = Option.value runs ~default:kind.runs in
  let grid run =
    sweep ?pool ~label:(kind.label_of p.n) ~runs ~seed:p.seed
      (List.map float_of_int (kind.axis p.n))
      (fun ~x ~seed -> run ~x:(int_of_float x) ~seed)
  in
  match kind.measure with
  | Convergence run -> Convergence_series (grid (run p))
  | Loss run -> Loss_series (grid (run p))
