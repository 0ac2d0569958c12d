(* The benchmark's four workloads, driven through the public API of
   framework, topology, net and bgp.

   A workload's input is a fixed "pass" of runs generated from the seed.
   One run builds a network, bootstraps it and drives it through the
   workload's phases to quiescence.  The harness repeats the pass in a
   closed loop (one client: the next run starts when the previous one is
   quiescent) for the measured window.

   Every call the harness makes into a layer is timed from outside as a
   unit of some [phase]; a long settle is driven in slices of
   [slice_events] scheduler events, each its own unit.  Runs are
   deterministic, so the k-th unit of a slot does the same work on every
   repeat, and the harness can keep each unit's fastest repeat. *)

module Network = Framework.Network
module Convergence = Framework.Convergence

exception Gate of string
(** A failed correctness gate: the run counts as failed. *)

let gate cond fmt = Printf.ksprintf (fun msg -> if not cond then raise (Gate msg)) fmt

type phase = Build | Create | Bootstrap | Load | Withdraw | Snapshot | Burst | Flood | Verify

let phases = [ Build; Create; Bootstrap; Load; Withdraw; Snapshot; Burst; Flood; Verify ]

let phase_index = function
  | Build -> 0
  | Create -> 1
  | Bootstrap -> 2
  | Load -> 3
  | Withdraw -> 4
  | Snapshot -> 5
  | Burst -> 6
  | Flood -> 7
  | Verify -> 8

let phase_name = function
  | Build -> "topology.build"
  | Create -> "network.create"
  | Bootstrap -> "network.bootstrap"
  | Load -> "network.load"
  | Withdraw -> "network.withdraw"
  | Snapshot -> "dataplane.snapshot"
  | Burst -> "dataplane.burst"
  | Flood -> "dataplane.flood"
  | Verify -> "fwd_verify"

let is_setup = function Build | Create | Bootstrap -> true | _ -> false

(* What one run did and how long each unit took.  A [probe] run also
   measures the live heap at its peak load; the harness does not time it. *)
type run = {
  probe : bool;
  mutable units : (phase * float) list;  (** wall seconds per timed unit, newest first *)
  cpu : float array;  (** process CPU seconds per phase (the profile's clock) *)
  mutable load_updates : int;  (** collector UPDATEs in announce phases *)
  mutable withdraw_updates : int;  (** collector UPDATEs in withdraw and failure phases *)
  mutable events : int;
  mutable tdowns : string list;  (** measured convergence spans, newest first *)
  mutable snapshots : int;
  mutable burst_probes : int;
  mutable flood_probes : int;
  mutable flood_minor_words : float;
  mutable loc_routes : int;  (** Loc-RIB entries over legacy routers, at peak load *)
  mutable adj_in_routes : int;
  mutable live_words : int;  (** major-heap live words at peak load (probe runs only) *)
  mutable attrs_distinct : int;  (** interned attribute sets at peak load (probe runs only) *)
  mutable profile : Engine.Sim.profile_row list;
  mutable registry : Engine.Metrics.snapshot option;
}

let new_run ~probe =
  let n = List.length phases in
  {
    probe;
    units = [];
    cpu = Array.make n 0.0;
    load_updates = 0;
    withdraw_updates = 0;
    events = 0;
    tdowns = [];
    snapshots = 0;
    burst_probes = 0;
    flood_probes = 0;
    flood_minor_words = 0.0;
    loc_routes = 0;
    adj_in_routes = 0;
    live_words = 0;
    attrs_distinct = 0;
    profile = [];
    registry = None;
  }

let timed r phase f =
  let i = phase_index phase in
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  let x = f () in
  r.units <- (phase, Unix.gettimeofday () -. w0) :: r.units;
  r.cpu.(i) <- r.cpu.(i) +. (Sys.time () -. c0);
  x

(* Wall seconds of the run's [phase] units. *)
let wall r phase = List.fold_left (fun acc (p, t) -> if p = phase then acc +. t else acc) 0.0 r.units

(* The deterministic part of a run: compared across repeats of a slot,
   across traced and untraced runs, and across processes. *)
let fingerprint r =
  Printf.sprintf "events=%d updates=%d/%d units=%d tdown=%s" r.events r.load_updates
    r.withdraw_updates (List.length r.units)
    (String.concat "," (List.rev r.tdowns))

(* How a run is executed: [profile] turns on the scheduler's per-category
   wall-clock profile; [causal] overrides the default causal mode. *)
type mode = { profile : bool; causal : Engine.Causal.mode option }

let plain = { profile = false; causal = None }

let config_for mode (config : Framework.Config.t) =
  match mode.causal with Some causal -> { config with Framework.Config.causal } | None -> config

(* Build and bootstrap: [Network.create], then [Convergence.attach] +
   [Network.start] + [Network.settle] — exactly [Experiment.create]'s
   sequence, split so each layer is timed on its own. *)
let boot r mode ~config ~seed spec =
  let net = timed r Create (fun () -> Network.create ~config:(config_for mode config) ~seed spec) in
  if mode.profile then Engine.Sim.set_profiling (Network.sim net) true;
  let watcher =
    timed r Bootstrap (fun () ->
        let w = Convergence.attach net in
        Network.start net;
        ignore (Network.settle net);
        w)
  in
  (net, watcher)

let collector_count net = Bgp.Collector.event_count (Network.collector net)

let credit r phase updates =
  match phase with
  | Load -> r.load_updates <- r.load_updates + updates
  | _ -> r.withdraw_updates <- r.withdraw_updates + updates

let slice_events = 256

(* [Network.settle]'s event limit. *)
let max_events = 10_000_000

(* Run to quiescence in timed slices; the same events, in the same order,
   as one [Network.settle]. *)
let drain r phase net =
  let sim = Network.sim net in
  let rec go budget =
    gate (budget > 0) "no quiescence within %d events" max_events;
    match timed r phase (fun () -> Engine.Sim.run ~max_events:slice_events sim) with
    | Engine.Sim.Exhausted -> ()
    | _ -> go (budget - slice_events)
  in
  go max_events

(* [action], then quiescence: the phase's collector UPDATEs are credited
   to it. *)
let settle_phase r phase net action =
  let before = collector_count net in
  timed r phase action;
  drain r phase net;
  credit r phase (collector_count net - before)

(* [settle_phase] measuring [prefix]'s convergence from the action, as
   [Convergence.measure] does; the span joins the fingerprint. *)
let measure r phase net watcher ~prefix action =
  let event_time = Network.now net in
  let changes_before = Convergence.control_changes watcher prefix in
  settle_phase r phase net action;
  let changes = Convergence.control_changes watcher prefix - changes_before in
  match Convergence.last_control_change watcher prefix with
  | Some t when Engine.Time.(t >= event_time) ->
    let seconds = Printf.sprintf "%.6f" (Engine.Time.to_sec_f (Engine.Time.diff t event_time)) in
    r.tdowns <- seconds :: r.tdowns;
    (seconds, changes)
  | _ -> raise (Gate "the measured event changed no route")

let finish r mode net =
  let sim = Network.sim net in
  gate (Engine.Sim.pending sim = 0) "run ended with %d events still queued" (Engine.Sim.pending sim);
  r.events <- Engine.Sim.executed sim;
  if mode.profile then begin
    r.profile <- Engine.Sim.profile sim;
    r.registry <- Some (Engine.Metrics.snapshot (Engine.Sim.metrics sim) ~at:(Network.now net))
  end

(* The run's peak load: a probe run collects the heap here. *)
let peak r =
  if r.probe then begin
    r.live_words <- (Gc.stat ()).Gc.live_words;
    r.attrs_distinct <- (Bgp.Attrs.intern_stats ()).Bgp.Attrs.distinct_full
  end

let legacy_tables net =
  Net.Asn.Map.fold
    (fun _ router (loc, adj) -> (loc + Bgp.Router.loc_size router, adj + Bgp.Router.adj_in_size router))
    (Network.routers net) (0, 0)

let clique_members n sdn = List.init sdn (fun i -> Topology.Artificial.asn (n - 1 - i))

(* --- Sizes ------------------------------------------------------------------ *)

type size = {
  clique : int;  (** clique size of fig2 and of the fail-over chain *)
  fig2_trials : int;  (** runs per SDN level in a pass *)
  caida : int * int * int;  (** tier-1, tier-2, stubs *)
  caida_prefixes : int;
  caida_sdn : int;  (** top-degree members of the hybrid CAIDA workload *)
  failover_levels : int list;
  failover_trials : int;  (** runs per SDN level in a pass *)
  flood_probes : int;
}

let full =
  {
    clique = 16;
    fig2_trials = 5;
    caida = (5, 40, 455);
    caida_prefixes = 60;
    caida_sdn = 45;
    failover_levels = [ 0; 8; 14 ];
    failover_trials = 2;
    flood_probes = 1_000_000;
  }

(* The CI smoke: every phase and gate of the full workloads, seconds of work. *)
let smoke =
  {
    full with
    fig2_trials = 1;
    caida = (3, 8, 40);
    caida_prefixes = 30;
    caida_sdn = 6;
    failover_trials = 1;
    flood_probes = 100_000;
  }

(* Slot k of a pass over [levels]: level k mod levels, trial k / levels,
   so the SDN levels interleave. *)
let level_slot levels k =
  let a = Array.of_list levels in
  (a.(k mod Array.length a), k / Array.length a)

let trial_seed seed trial = seed + (1000 * trial)

(* --- fig2-clique16 --------------------------------------------------------- *)

(* The paper's Fig. 2 levels: 0, 2, ..., n-2 SDN members. *)
let fig2_levels size = List.init (size.clique / 2) (fun i -> 2 * i)

(* The committed Fig. 2 data ([bench_results/fig2-withdrawal-clique16.csv],
   written by [bench/main.exe] at seed 7): (sdn, run) -> the printed
   seconds, changes and collector_updates columns. *)
type golden = (int * int, string * string * string) Hashtbl.t

let golden_seed = 7

(* Runs per level in the committed data. *)
let golden_trials = 10

let load_golden path : golden =
  let rows = Hashtbl.create 128 in
  In_channel.with_open_text path (fun ic ->
      ignore (In_channel.input_line ic);
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.split_on_char ',' line with
          | [ _label; x; run; seconds; changes; updates ] ->
            Hashtbl.replace rows (int_of_string x, int_of_string run) (seconds, changes, updates)
          | _ -> failwith ("malformed golden row: " ^ line));
          go ()
      in
      go ());
  rows

type ctx = { size : size; seed : int; golden : golden }

(* One Fig. 2 run: build -> bootstrap -> announce to quiescence ->
   withdraw to quiescence, as [Experiments.clique_run] with [Withdrawal].
   At the golden seed its result must equal the committed row. *)
let fig2_run r mode ctx ~sdn ~trial =
  let n = ctx.size.clique in
  let spec =
    timed r Build (fun () ->
        Topology.Spec.with_sdn (Topology.Artificial.clique n) (clique_members n sdn))
  in
  let net, watcher =
    boot r mode ~config:Framework.Config.default ~seed:(trial_seed ctx.seed trial) spec
  in
  let origin = Topology.Artificial.asn 0 in
  let prefix = (Network.plan net).Framework.Addressing.origin_prefix origin in
  ignore (measure r Load net watcher ~prefix (fun () -> Network.originate net origin prefix));
  peak r;
  let seconds, changes =
    measure r Withdraw net watcher ~prefix (fun () -> Network.withdraw net origin prefix)
  in
  Net.Asn.Map.iter
    (fun asn router ->
      gate (Bgp.Router.best router prefix = None) "AS%d still routes the withdrawn prefix"
        (Net.Asn.to_int asn))
    (Network.routers net);
  finish r mode net;
  if ctx.seed = golden_seed then
    match Hashtbl.find_opt ctx.golden (sdn, trial) with
    | None -> gate (trial >= golden_trials) "no committed Fig. 2 row for sdn=%d run=%d" sdn trial
    | Some ((s', c', u') as want) ->
      let c = string_of_int changes and u = string_of_int r.withdraw_updates in
      gate ((seconds, c, u) = want)
        "fig2 sdn=%d run=%d: seconds,changes,updates %s,%s,%s; committed %s,%s,%s" sdn trial
        seconds c u s' c' u'

(* --- caida500-legacy / caida500-hybrid -------------------------------------- *)

(* One CAIDA run: generate the graph, centralize [sdn] top-degree ASes,
   originate the load prefixes round-robin at the stubs and run to
   quiescence, one measured announce + withdraw of the origin stub's own
   prefix, then withdraw every load prefix to quiescence. *)
let caida_run r mode ctx ~sdn =
  let size = ctx.size and seed = ctx.seed in
  let tier1, tier2, stubs = size.caida in
  let spec, stub_arr, origin =
    timed r Build (fun () ->
        let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create seed) in
        let stub_list = Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs in
        let origin = List.hd stub_list in
        let members =
          Framework.Experiments.choose_members ~spec ~k:sdn
            ~placement:Framework.Experiments.Top_degree ~origin ~seed
        in
        (Topology.Spec.with_sdn spec members, Array.of_list stub_list, origin))
  in
  let config =
    { Framework.Config.default with Framework.Config.collector_retention = Bgp.Collector.Counts_only }
  in
  let net, watcher = boot r mode ~config ~seed spec in
  let load =
    List.init size.caida_prefixes (fun m ->
        (stub_arr.(m mod Array.length stub_arr), Framework.Experiments.scale_prefix m))
  in
  settle_phase r Load net (fun () -> List.iter (fun (stub, p) -> Network.originate net stub p) load);
  let loc, adj = legacy_tables net in
  let want = List.length (Network.legacy_asns net) * size.caida_prefixes in
  gate (loc = want) "load: %d Loc-RIB routes, expected %d" loc want;
  r.loc_routes <- loc;
  r.adj_in_routes <- adj;
  peak r;
  let prefix = (Network.plan net).Framework.Addressing.origin_prefix origin in
  ignore (measure r Load net watcher ~prefix (fun () -> Network.originate net origin prefix));
  ignore (measure r Withdraw net watcher ~prefix (fun () -> Network.withdraw net origin prefix));
  settle_phase r Withdraw net (fun () -> List.iter (fun (stub, p) -> Network.withdraw net stub p) load);
  let loc, adj = legacy_tables net in
  gate (loc = 0 && adj = 0) "withdraw-all left %d Loc-RIB and %d Adj-RIB-In routes" loc adj;
  finish r mode net

(* --- failover-probes-clique16 ----------------------------------------------- *)

(* Every ordered (src, dst) pair, src <> dst, as dense snapshot indices
   and destination host-address bits: the flood's schedule. *)
let all_pairs net snap =
  let plan = Network.plan net in
  let asns = Network.asns net in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if Net.Asn.equal src dst then None
          else
            Some
              ( Net.Dataplane.index_of snap (Net.Asn.to_int src),
                Net.Ipv4.addr_to_bits (plan.Framework.Addressing.host_addr dst) ))
        asns)
    asns
  |> Array.of_list

(* Probes [first, first + count) of the flood, cycling over [pairs];
   returns how many were delivered. *)
let flood snap pairs ~first ~count =
  let ttl = Net.Packet.default_ttl in
  let np = Array.length pairs in
  let delivered = ref 0 in
  for i = first to first + count - 1 do
    let src, dst_bits = pairs.(i mod np) in
    if Net.Dataplane.result_fate_code (Net.Dataplane.forward snap ~src ~dst_bits ~ttl) = 0 then
      incr delivered
  done;
  !delivered

let flood_chunk = 100_000

let burst_interval = Engine.Time.ms 100

(* One fail-over run: the fail-over chain with every AS originating, the
   stub's primary link fails, all-pairs probe bursts on fresh snapshots
   every 100 ms of simulated time until one is loss-free, then to
   quiescence, a static verification, and a flood on the settled
   snapshot in which every probe must be delivered. *)
let failover_run r mode ctx ~sdn ~trial =
  let size = ctx.size and seed = trial_seed ctx.seed trial in
  let spec =
    timed r Build (fun () ->
        let spec =
          Topology.Artificial.failover_backup_chain ~clique_size:size.clique ~chain_len:2 ()
        in
        Topology.Spec.with_sdn spec (clique_members size.clique sdn))
  in
  let net, watcher = boot r mode ~config:Framework.Config.default ~seed spec in
  let plan = Network.plan net in
  settle_phase r Load net (fun () ->
      List.iter
        (fun asn -> Network.originate net asn (plan.Framework.Addressing.origin_prefix asn))
        (Network.asns net));
  peak r;
  let stub = Topology.Artificial.stub_asn spec in
  let prefix = plan.Framework.Addressing.origin_prefix stub in
  let tg = Framework.Trafficgen.create ~seed net Framework.Trafficgen.All_pairs in
  let sim = Network.sim net in
  let before = collector_count net in
  let event_time = Network.now net in
  timed r Withdraw (fun () -> Network.fail_link net stub (Topology.Artificial.asn 0));
  let rec probe () =
    let snap = timed r Snapshot (fun () -> Network.dataplane_snapshot net) in
    let e = timed r Burst (fun () -> Framework.Trafficgen.burst ~snapshot:snap tg) in
    r.snapshots <- r.snapshots + 1;
    r.burst_probes <- r.burst_probes + e.Framework.Trafficgen.injected;
    if Framework.Trafficgen.epoch_lost e > 0 then begin
      gate (Engine.Sim.pending sim > 0) "loss persists after the control plane went quiet";
      timed r Withdraw (fun () ->
          Network.run_until net (Engine.Time.add (Network.now net) burst_interval));
      probe ()
    end
  in
  probe ();
  drain r Withdraw net;
  credit r Withdraw (collector_count net - before);
  (match Convergence.last_control_change watcher prefix with
  | Some t when Engine.Time.(t >= event_time) ->
    r.tdowns <- Printf.sprintf "%.6f" (Engine.Time.to_sec_f (Engine.Time.diff t event_time)) :: r.tdowns
  | _ -> raise (Gate "the link failure changed no route to the stub"));
  let report = timed r Verify (fun () -> Framework.Fwd_verify.verify net) in
  gate (report.Framework.Fwd_verify.issues = []) "Fwd_verify: %d residual issues"
    (List.length report.Framework.Fwd_verify.issues);
  let snap = timed r Snapshot (fun () -> Network.dataplane_snapshot net) in
  r.snapshots <- r.snapshots + 1;
  let pairs = all_pairs net snap in
  let w0 = Gc.minor_words () in
  let delivered = ref 0 and first = ref 0 in
  while !first < size.flood_probes do
    let count = min flood_chunk (size.flood_probes - !first) in
    delivered := !delivered + timed r Flood (fun () -> flood snap pairs ~first:!first ~count);
    first := !first + count
  done;
  r.flood_minor_words <- r.flood_minor_words +. (Gc.minor_words () -. w0);
  r.flood_probes <- r.flood_probes + size.flood_probes;
  gate (!delivered = size.flood_probes) "flood: %d of %d probes delivered" !delivered
    size.flood_probes;
  finish r mode net

(* --- The workload table ------------------------------------------------------ *)

type t = {
  name : string;
  why : string;
  pass : size -> int;  (** runs ("slots") in one pass of the input *)
  golden_slots : size -> int list;
      (** slots that the committed data pins at {!golden_seed}: replayed
          there by windows under any other seed *)
  run : run -> mode -> ctx -> int -> unit;  (** execute slot [k]; raises on a failed gate *)
}

let all =
  [
    {
      name = "fig2-clique16";
      why =
        "the paper's Fig. 2: many tiny withdrawal runs, so per-event cost (scheduler, delivery, MRAI timers, causal ring) dominates";
      pass = (fun size -> List.length (fig2_levels size) * size.fig2_trials);
      golden_slots = (fun size -> List.init (List.length (fig2_levels size)) Fun.id);
      run =
        (fun r mode ctx k ->
          let sdn, trial = level_slot (fig2_levels ctx.size) k in
          fig2_run r mode ctx ~sdn ~trial);
    };
    {
      name = "caida500-legacy";
      why =
        "large tables, no controller or data plane: BGP decision, trie RIBs and interning on table loads and path-exploring withdrawals";
      pass = (fun _ -> 1);
      golden_slots = (fun _ -> []);
      run = (fun r mode ctx _ -> caida_run r mode ctx ~sdn:0);
    };
    {
      name = "caida500-hybrid";
      why =
        "the same BGP input with the top-degree ASes centralized, so controller recompute and speaker relay take a share";
      pass = (fun _ -> 1);
      golden_slots = (fun _ -> []);
      run = (fun r mode ctx _ -> caida_run r mode ctx ~sdn:ctx.size.caida_sdn);
    };
    {
      name = "failover-probes-clique16";
      why =
        "the only data-plane workload: snapshot compiles and probe bursts during fail-over, then a read-only probe flood";
      pass = (fun size -> List.length size.failover_levels * size.failover_trials);
      golden_slots = (fun _ -> []);
      run =
        (fun r mode ctx k ->
          let sdn, trial = level_slot ctx.size.failover_levels k in
          failover_run r mode ctx ~sdn ~trial);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
