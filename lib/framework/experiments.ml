(* Canned experiments reproducing the paper's evaluation.

   Fig. 2: withdrawal convergence on a 16-AS clique vs fraction of
   SDN-controlled ASes, boxplots over 10 seeded runs; plus the
   announcement and fail-over variants §4 mentions, and the ablations
   DESIGN.md commits to.  Every run is a description ([t]) that one
   function, [run], executes, and every sweep is one row of [kinds] (the
   table at the end of this file): an axis and a description per x.  The
   CLI, the examples and the tests build the same descriptions. *)

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

(* The paper's user-visible symptom (the "video interruption") measured
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

type scale_result = {
  load_updates : int; (* collector-recorded updates during the load phase *)
  load_seconds : float; (* host seconds spent in the load phase *)
  load_settled : bool; (* the load phase reached quiescence under its budget *)
  withdrawal : run_result; (* the measured event after the load *)
  rib_routes : int; (* Loc-RIB entries over legacy routers after the load *)
  adj_in_routes : int; (* Adj-RIB-In entries over legacy routers after the load *)
  live_words : int; (* major-heap live words right after the load *)
  peak_words : int; (* Gc top_heap_words over the whole run *)
  distinct_attrs : int; (* live sets in the domain-local (weak) intern set *)
  built_words_per_as : float; (* words Network.create allocated, per AS *)
}

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

(* The placement rows, [loss:caida] and [hybridsim scale] share one world:
   a CAIDA-style graph generated once from the base seed. *)
type caida_world = { spec : Topology.Spec.t; stub_asns : Net.Asn.t list }

let caida_world ~tier1 ~tier2 ~stubs ~seed =
  {
    spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create seed);
    stub_asns = Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs;
  }

(* Synthetic prefixes for the load phase: 101.0.0.0/24 onward, disjoint
   from the addressing plan's 100.64/10 origin prefixes and 10/8 router
   addresses. *)
let scale_prefix m =
  if m < 0 || m >= 0x9a_0000 then invalid_arg "Experiments.scale_prefix";
  Net.Ipv4.prefix
    (Net.Ipv4.addr_of_octets (101 + (m lsr 16)) ((m lsr 8) land 0xff) (m land 0xff) 0)
    24

(* --- Run descriptions ------------------------------------------------------ *)

type world = Graph of Topology.Spec.t | Clique of int | Failover of Topology.Spec.t

type members = Last of int | Placed of placement * int

type event = Withdrawal | Announcement | Fail_link of Net.Asn.t

type load = { origins : Net.Asn.t list; prefixes : int; budget : int; clock : unit -> float }

type collector_count = Since_event | Since_boot

type _ measure =
  | Convergence : run_result measure
  | Restoration : run_result measure
  | Loss : { per_prefix : int; interval_ms : int } -> loss_result measure
  | Scale : load -> scale_result measure

type 'r t = {
  world : world;
  members : members;
  origin : Net.Asn.t;
  background : Net.Asn.t list;
  churn : Scenario.step list;
  event : event;
  measure : 'r measure;
  collector : collector_count;
  config : Config.t;
  seed : int;
}

(* The fail-over world: the clique plus a stub whose primary link enters
   member 0 and whose 2-AS backup chain reaches member 1.  Legacy clique
   members hold stale intermediate-length paths through each other and
   explore them MRAI round by round before settling on the backup;
   centralized members skip that exploration. *)
let backup_chain clique =
  Topology.Artificial.failover_backup_chain ~clique_size:(Topology.Spec.node_count clique)
    ~chain_len:2 ()

let world_spec = function
  | Graph spec -> spec
  | Clique n -> Topology.Artificial.clique n
  | Failover clique -> backup_chain clique

let describe ?(members = Last 0) ?origin ?(config = Config.default) ?(seed = 42) world =
  let own_origin, event, measure =
    match world with
    | Graph spec -> (List.hd (Topology.Spec.asns spec), Withdrawal, Convergence)
    | Clique _ -> (Topology.Artificial.asn 0, Withdrawal, Convergence)
    | Failover clique ->
      ( Topology.Artificial.stub_asn (backup_chain clique),
        Fail_link (Topology.Artificial.asn 0),
        Restoration )
  in
  let origin = Option.value origin ~default:own_origin in
  { world; members; origin; background = []; churn = []; event; measure; config; seed;
    collector = Since_event }

(* --- Validation -------------------------------------------------------------- *)

(* ASes 0 .. n-1 (n >= 2), each linked to every other. *)
let is_clique spec =
  let n = Topology.Spec.node_count spec in
  n >= 2
  && List.equal Net.Asn.equal (Topology.Spec.asns spec) (List.init n Topology.Artificial.asn)
  && List.for_all (fun a -> Topology.Spec.degree spec a = n - 1) (Topology.Spec.asns spec)

(* The ASes [Last k] takes from: a clique world keeps AS 0 (the origin, or
   the fail-over primary) and AS 1 (the flapper, or the backup anchor)
   legacy. *)
let joinable = function
  | Graph spec -> Topology.Spec.asns spec
  | Clique n -> List.filteri (fun i _ -> i >= 2) (List.init n Topology.Artificial.asn)
  | Failover clique -> List.filteri (fun i _ -> i >= 2) (Topology.Spec.asns clique)

let check (type r) (d : r t) =
  let ( let* ) = Result.bind in
  let require cond msg = if cond then Ok () else Error msg in
  let* () =
    require (match d.world with Failover c -> is_clique c | _ -> true) "fail-over needs a clique"
  in
  let spec = world_spec d.world in
  let k, most =
    match d.members with
    | Last k -> (k, List.length (joinable d.world))
    | Placed (_, k) -> (k, Topology.Spec.node_count spec - 1)
  in
  let* () =
    require (k >= 0 && k <= most)
      (Fmt.str "%d members, but 0 to %d of the world's ASes may join" k most)
  in
  let named = d.origin :: d.background @ match d.measure with Scale l -> l.origins | _ -> [] in
  let* () =
    require (List.for_all (Topology.Spec.mem spec) named) "the run names an AS outside its world"
  in
  let* () =
    require
      (match d.event with
      | Fail_link peer -> List.exists (Net.Asn.equal peer) (Topology.Spec.neighbors spec d.origin)
      | Withdrawal | Announcement -> true)
      "the failed link is not in the world"
  in
  let members =
    match d.members with
    | Last k ->
      let asns = joinable d.world in
      List.filteri (fun i _ -> i >= List.length asns - k) asns
    | Placed (placement, k) -> choose_members ~spec ~k ~placement ~origin:d.origin ~seed:d.seed
  in
  Ok (Topology.Spec.with_sdn spec members)

(* --- The runner ----------------------------------------------------------------- *)

let collector_count exp = Bgp.Collector.event_count (Network.collector (Experiment.network exp))

(* The result of one [measured] event; [collector_updates] counts what the
   collector recorded after its first [since] updates. *)
let result ~since exp (measured : Convergence.measurement) =
  {
    seconds = Experiment.convergence_seconds measured;
    changes = measured.Convergence.changes;
    collector_updates = collector_count exp - since;
    restore_mean = nan;
    restore_max = nan;
    metrics = Experiment.final_metrics exp;
  }

(* Words the calling domain has allocated so far, minor and major.  On
   OCaml 5 [Gc.counters] reports minor words only as of the last minor
   collection, so the minor figure comes from [Gc.minor_words]; promoted
   words are in the major figure too, so they are taken off once. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The load phase: [prefixes] origins spread round-robin across the load
   origins, run under the event budget.  Returns the scale figures given
   the measured event's result; the run's peak heap and the sets still
   interned complete them then. *)
let run_load exp ~built (l : load) =
  let network = Experiment.network exp in
  let origins = Array.of_list l.origins in
  let t0 = l.clock () in
  let updates_before = collector_count exp in
  for m = 0 to l.prefixes - 1 do
    Network.originate network origins.(m mod Array.length origins) (scale_prefix m)
  done;
  let drained = Engine.Sim.run ~max_events:l.budget (Experiment.sim exp) in
  let load_seconds = l.clock () -. t0 in
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
      built_words_per_as = built /. float_of_int (Topology.Spec.node_count (Network.spec network));
    }

(* Per-AS data-plane restoration (the paper's end-to-end video
   interruption): sample forwarding state every 100 ms after the event
   and record each AS's first instant of renewed reachability to
   [origin]. *)
let restoration exp ~origin phase event =
  let network = Experiment.network exp in
  let sim = Experiment.sim exp in
  let watchers =
    List.filter (fun a -> not (Net.Asn.equal a origin)) (Topology.Spec.asns (Network.spec network))
  in
  let restored : (Net.Asn.t, float) Hashtbl.t = Hashtbl.create 16 in
  (* [phase] performs its action at once *)
  let event_time = Engine.Sim.now sim in
  let rec sample () =
    List.iter
      (fun src ->
        if not (Hashtbl.mem restored src) && Monitor.reachable network ~src ~dst:origin then
          Hashtbl.replace restored src
            (Engine.Time.to_sec_f (Engine.Time.diff (Engine.Sim.now sim) event_time)))
      watchers;
    let elapsed = Engine.Time.diff (Engine.Sim.now sim) event_time in
    if
      Hashtbl.length restored < List.length watchers
      && Engine.Time.(elapsed < Engine.Time.sec 3600)
    then ignore (Engine.Sim.schedule_after sim (Engine.Time.ms 100) sample)
  in
  let measured = phase (fun () -> event (); sample ()) in
  let restore_times = Hashtbl.fold (fun _ t acc -> t :: acc) restored [] in
  (measured, Engine.Stats.mean restore_times, List.fold_left Float.max 0.0 restore_times)

(* Probe bursts ([per_prefix] seeded sources toward [origin]'s prefix)
   every [interval_ms] of simulated time after the event until a burst
   comes back loss-free, or 600 s pass (a censored run, e.g. a
   single-homed origin that can never recover). *)
let loss exp ~origin ~seed ~per_prefix ~interval_ms phase event =
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
  let event_time = Engine.Sim.now sim in
  let rec sample () =
    let e = Trafficgen.burst tg in
    let elapsed = Engine.Time.diff (Engine.Sim.now sim) event_time in
    if Trafficgen.epoch_lost e > 0 && Engine.Time.(elapsed < cap) then
      ignore (Engine.Sim.schedule_after sim interval sample)
  in
  let measured = phase (fun () -> event (); sample ()) in
  let post = List.filteri (fun i _ -> i >= baseline_epochs) (Trafficgen.epochs tg) in
  let rel (e : Trafficgen.epoch) =
    Engine.Time.to_sec_f (Engine.Time.diff e.Trafficgen.at event_time)
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
  {
    converge_seconds = Experiment.convergence_seconds measured;
    loss_seconds;
    blackhole_seconds = last_with (fun e -> e.Trafficgen.blackholed > 0);
    loop_seconds = last_with (fun e -> e.Trafficgen.looped > 0);
    probes = List.fold_left (fun a e -> a + e.Trafficgen.injected) 0 post;
    lost = List.fold_left (fun a e -> a + Trafficgen.epoch_lost e) 0 post;
    max_loss_ratio = List.fold_left (fun a e -> Float.max a (Trafficgen.loss_ratio e)) 0.0 post;
    residual_issues = List.length (Fwd_verify.verify ~dsts:[ origin ] network).Fwd_verify.issues;
    loss_epochs = post;
  }

(* Each phase runs to quiescence and raises on divergence
   ([Network.settle]), or, under a load, stops after the load's event
   budget: the scale path's horizon. *)
let run (type r) ?(on_boot = ignore) (d : r t) : r =
  let spec = match check d with Ok spec -> spec | Error msg -> invalid_arg ("Experiments.run: " ^ msg) in
  let load = match d.measure with Scale l -> Some l | Convergence | Restoration | Loss _ -> None in
  (* At scale the collector keeps its update count only; the full event
     log would dominate the live heap. *)
  let config =
    if Option.is_some load then
      { d.config with Config.collector_retention = Bgp.Collector.Counts_only }
    else d.config
  in
  let before = allocated_words () in
  let network = Network.create ~config ~seed:d.seed spec in
  let built = allocated_words () -. before in
  let exp = Experiment.boot network in
  on_boot exp;
  if d.background <> [] then begin
    List.iter (fun a -> ignore (Experiment.announce exp a)) d.background;
    ignore (Experiment.settle exp)
  end;
  let loaded = Option.map (run_load exp ~built) load in
  let budget = Option.map (fun l -> l.budget) load in
  let prefix = Experiment.default_prefix exp d.origin in
  let phase action =
    Experiment.measure ?max_events:budget ~bounded:(Option.is_some budget) exp ~prefix action
  in
  if d.event <> Announcement then
    ignore (phase (fun () -> ignore (Experiment.announce exp d.origin)));
  (* the churn train's times count from the measured event *)
  let now = Experiment.now exp in
  Scenario.schedule network
    (List.map
       (fun (s : Scenario.step) ->
         { s with at = Engine.Time.add now (Engine.Time.diff s.at Engine.Time.zero) })
       d.churn);
  let since = match d.collector with Since_event -> collector_count exp | Since_boot -> 0 in
  let event () =
    match d.event with
    | Withdrawal -> ignore (Experiment.withdraw exp d.origin)
    | Announcement -> ignore (Experiment.announce exp d.origin)
    | Fail_link peer -> Experiment.fail_link exp d.origin peer
  in
  match d.measure with
  | Convergence -> result ~since exp (phase event)
  | Restoration ->
    let measured, restore_mean, restore_max = restoration exp ~origin:d.origin phase event in
    { (result ~since exp measured) with restore_mean; restore_max }
  | Loss { per_prefix; interval_ms } ->
    loss exp ~origin:d.origin ~seed:d.seed ~per_prefix ~interval_ms phase event
  | Scale _ -> (Option.get loaded) (result ~since exp (phase event))

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
  let prefix = Experiment.default_prefix exp d in
  ignore (Experiment.measure exp ~prefix (fun () -> ignore (Experiment.announce exp d)));
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
   the smallest [-n] its runs accept, and the run description at one
   (x, seed).  A row's description function is applied to the sweep's
   parameters once, before the grid starts, so a row can build a shared
   read-only world there. *)

type params = { n : int; seed : int; config : Config.t; per_prefix : int; interval_ms : int }

type runs =
  | Convergence_runs of (params -> x:int -> seed:int -> run_result t)
  | Loss_runs of (params -> x:int -> seed:int -> loss_result t)

type kind = {
  name : string;
  aliases : string list;
  doc : string;
  label_of : int -> string;
  axis : int -> int list;
  runs : int;
  min_n : int;
  describe : runs;
}

type sweep_result = Convergence_series of run_result series | Loss_series of loss_result series

let row ?(aliases = []) ?(min_n = 2) ~runs name doc label_of axis describe =
  { name; aliases; doc; label_of; axis; runs; min_n; describe }

let kinds =
  let clique name n = Fmt.str "%s-clique%d" name n in
  let fixed xs _ = xs in
  let upto step limit = List.init ((limit / step) + 1) (fun i -> step * i) in
  (* 0, 2, 4, ... n-2 SDN members out of n, as in Fig. 2 *)
  let sdn_levels n = upto 2 (n - 2) in
  (* half the clique centralized: n >= 3 keeps the origin and one more AS legacy *)
  let half (p : params) = p.n / 2 in
  (* AS 0's withdrawal on the n-clique with its last [sdn] ASes centralized *)
  let withdrawal (p : params) ~sdn ~seed config =
    describe ~members:(Last sdn) ~config ~seed (Clique p.n)
  in
  let failover (p : params) ~sdn ~seed config =
    describe ~members:(Last sdn) ~config ~seed (Failover (Topology.Artificial.clique p.n))
  in
  let probed (p : params) d =
    { d with measure = Loss { per_prefix = p.per_prefix; interval_ms = p.interval_ms } }
  in
  let scaling name ~fraction =
    row name ~runs:5
      (Fmt.str "withdrawal vs clique size 8..24 at %.0f%% SDN (-n unused)" (fraction *. 100.0))
      (fun _ -> Fmt.str "scaling-withdrawal-f%.2f" fraction)
      (fixed [ 8; 12; 16; 20; 24 ])
      (Convergence_runs
         (fun p ~x:n ~seed ->
           let sdn = min (int_of_float (float_of_int n *. fraction)) (n - 2) in
           withdrawal { p with n } ~sdn ~seed p.config))
  in
  let mrai name ~halved =
    row name ~runs:10 ~min_n:(if halved then 3 else 2)
      (Fmt.str "MRAI 5, 15 and 30 s at %d%% SDN" (if halved then 50 else 0))
      (fun n -> Fmt.str "%s-sdn%d" (clique "ablation-mrai" n) (if halved then n / 2 else 0))
      (fixed [ 5; 15; 30 ])
      (Convergence_runs
         (fun p ~x ~seed ->
           let sdn = if halved then half p else 0 in
           withdrawal p ~sdn ~seed (Config.with_mrai p.config (Engine.Time.sec x))))
  in
  (* the CAIDA rows' world: a 31-AS graph from the base seed; their runs
     take the next seed *)
  let caida31 (p : params) = caida_world ~tier1:3 ~tier2:8 ~stubs:20 ~seed:p.seed in
  let placement placement =
    let name = placement_to_string placement in
    row ("placement:" ^ name)
      ~aliases:(if placement = Top_degree then [ "placement" ] else [])
      ~runs:5
      (Fmt.str "withdrawal vs k = 0..8 members placed %s on a 31-AS CAIDA-style graph (-n unused)"
         name)
      (fun _ -> "placement-" ^ name)
      (fixed [ 0; 2; 4; 6; 8 ])
      (Convergence_runs
         (fun p ->
           let world = caida31 p in
           let origin = List.hd world.stub_asns in
           fun ~x ~seed ->
             {
               (describe ~members:(Placed (placement, x)) ~origin ~config:p.config
                  ~seed:(seed + 1) (Graph world.spec))
               with
               collector = Since_boot;
             }))
  in
  [
    row "fig2" ~aliases:[ "withdraw" ] ~runs:10
      "the paper's Fig. 2: withdrawal vs SDN members 0, 2, .., n-2" (clique "fig2-withdrawal")
      sdn_levels
      (Convergence_runs (fun p ~x ~seed -> withdrawal p ~sdn:x ~seed p.config));
    row "announce" ~runs:10 "announcement vs SDN members" (clique "announcement") sdn_levels
      (Convergence_runs
         (fun p ~x ~seed -> { (withdrawal p ~sdn:x ~seed p.config) with event = Announcement }));
    row "failover" ~runs:10 "fail-over onto a longer backup chain vs SDN members"
      (clique "failover") sdn_levels
      (Convergence_runs
         (fun p ~x ~seed -> { (failover p ~sdn:x ~seed p.config) with collector = Since_boot }));
    scaling "scaling" ~fraction:0.5;
    scaling "scaling:0" ~fraction:0.0;
    row "ablation:delay" ~runs:10 ~min_n:3 "controller recompute delay 0..8 s at 50% SDN"
      (clique "ablation-recompute-delay")
      (fixed [ 0; 500; 2000; 8000 ])
      (Convergence_runs
         (fun p ~x ~seed ->
           withdrawal p ~sdn:(half p) ~seed
             (Config.with_recompute_delay p.config (Engine.Time.ms x))));
    mrai "ablation:mrai" ~halved:false;
    mrai "ablation:mrai:half" ~halved:true;
    row "ablation:wrate" ~runs:10 "RFC-exempt (x=0) vs Quagga-paced (x=1) withdrawals at 0% SDN"
      (fun n -> clique "ablation-wrate" n ^ "-sdn0")
      (fixed [ 0; 1 ])
      (Convergence_runs
         (fun p ~x ~seed ->
           let bgp = { p.config.Config.bgp with Bgp.Config.mrai_on_withdrawals = x = 1 } in
           withdrawal p ~sdn:0 ~seed { p.config with Config.bgp }));
    row "ablation:speaker" ~runs:5 ~min_n:3 "cluster speaker MRAI off (x=0) vs on (x=1) at 50% SDN"
      (clique "ablation-speaker-mrai")
      (fixed [ 0; 1 ])
      (Convergence_runs
         (fun p ~x ~seed ->
           let speaker_mrai = if x = 1 then Some Bgp.Config.default else None in
           withdrawal p ~sdn:(half p) ~seed { p.config with Config.speaker_mrai }));
    (* Because MRAI timers are per *peer*, not per prefix, AS 1 flapping
       its own prefix every 20 s keeps the timers armed and the measured
       withdrawal inherits extra pacing delay; centralized members are
       immune to that coupling. *)
    row "churn-load" ~runs:1 ~min_n:3 "withdrawal beside a flapping neighbour vs SDN members"
      (clique "churn-load")
      (fun n -> upto 4 (n - 3))
      (Convergence_runs
         (fun p ~x ~seed ->
           let flapper = Topology.Artificial.asn 1 in
           (* a finite flap train long enough to cover the measurement *)
           let cycle i =
             let up = 20.0 *. float_of_int i in
             Scenario.[ at up (Announce (flapper, None)); at (up +. 10.0) (Withdraw (flapper, None)) ]
           in
           {
             (withdrawal p ~sdn:x ~seed p.config) with
             churn = List.concat (List.init 40 cycle);
             collector = Since_boot;
           }));
    (* Since updates are per-prefix and the background is quiescent,
       convergence of the withdrawn prefix should not depend on table
       size. *)
    row "table-size" ~runs:1 "withdrawal vs background prefixes (a negative control)"
      (clique "table-size")
      (fun n -> upto 5 (n - 1))
      (Convergence_runs
         (fun p ~x ~seed ->
           {
             (withdrawal p ~sdn:0 ~seed p.config) with
             background = List.init x (fun i -> Topology.Artificial.asn (i + 1));
             collector = Since_boot;
           }));
    placement Top_degree;
    placement Random_choice;
    placement Stubs_first;
    row "loss" ~runs:5 "data-plane loss vs SDN members on the fail-over clique"
      (clique "loss-failover") sdn_levels
      (Loss_runs (fun p ~x ~seed -> probed p (failover p ~sdn:x ~seed p.config)));
    row "loss:delay" ~runs:5 ~min_n:3
      "data-plane loss vs controller recompute delay 0..8 s at n-2 SDN members"
      (clique "loss-recompute-delay")
      (fixed [ 0; 500; 2000; 8000 ])
      (Loss_runs
         (fun p ~x ~seed ->
           probed p
             (failover p ~sdn:(p.n - 2) ~seed
                (Config.with_recompute_delay p.config (Engine.Time.ms x)))));
    (* the first multi-homed stub loses its first provider link, so the
       failure is survivable *)
    row "loss:caida" ~runs:3
      "data-plane loss vs k top-degree members on the placement graph, failing a stub's \
       provider link (-n unused)"
      (fun _ -> "loss-caida31")
      (fixed [ 0; 2; 4; 6; 8 ])
      (Loss_runs
         (fun p ->
           let { spec; stub_asns } = caida31 p in
           let multihomed a = Topology.Spec.degree spec a >= 2 in
           let origin =
             Option.value (List.find_opt multihomed stub_asns) ~default:(List.hd stub_asns)
           in
           let peer = List.hd (Topology.Spec.neighbors spec origin) in
           fun ~x ~seed ->
             probed p
               {
                 (describe ~members:(Placed (Top_degree, x)) ~origin ~config:p.config
                    ~seed:(seed + 1) (Graph spec))
                 with
                 event = Fail_link peer;
               }));
  ]

let check_n kind n =
  if n >= kind.min_n then Ok () else Error (Fmt.str "--kind %s needs -n >= %d" kind.name kind.min_n)

let sweep_kind ?pool ?runs kind p =
  Result.iter_error (fun msg -> invalid_arg ("Experiments.sweep_kind: " ^ msg)) (check_n kind p.n);
  let runs = Option.value runs ~default:kind.runs in
  let grid describe =
    sweep ?pool ~label:(kind.label_of p.n) ~runs ~seed:p.seed
      (List.map float_of_int (kind.axis p.n))
      (fun ~x ~seed -> run (describe ~x:(int_of_float x) ~seed))
  in
  match kind.describe with
  | Convergence_runs describe -> Convergence_series (grid (describe p))
  | Loss_runs describe -> Loss_series (grid (describe p))
