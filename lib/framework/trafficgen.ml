(* High-rate synthetic traffic generation over the data-plane fast path.

   A generator owns a seeded probe schedule (all pairs, a sampled pair
   budget, or per-prefix sampling) and fires it in BURSTS: each burst
   compiles — or reuses — a [Net.Dataplane] snapshot of the composed
   forwarding state and classifies every scheduled probe against it with
   [Net.Dataplane.forward].  The snapshot resolves each destination
   class once, on its first probe, and caches each destination's class,
   so a probe costs a cache probe, one table read and a TTL comparison:
   a burst of hundreds of thousands of probes costs no per-probe
   allocation and perturbs no flow counters.

   Each burst is recorded as an epoch (simulated timestamp + fate
   census) and mirrored into the simulator's metrics registry, which
   [Telemetry] scrapes on its normal cadence:

     dataplane_probes_total              every probe injected
     dataplane_probes_delivered_total    probes that reached dst's host
     dataplane_probes_dropped_total{fate="blackhole"|"loop"|"ttl_expired"}

   Drop counters are registered lazily per fate label — a clean run
   exports exactly the same series as before this module existed. *)

type schedule =
  | All_pairs
  | Sampled_pairs of int
  | Per_prefix of int

type epoch = {
  at : Engine.Time.t;
  injected : int;
  delivered : int;
  blackholed : int;
  looped : int;
  ttl_expired : int;
}

let epoch_lost e = e.blackholed + e.looped + e.ttl_expired

let loss_ratio e = if e.injected = 0 then 0.0 else float_of_int (epoch_lost e) /. float_of_int e.injected

type t = {
  net : Network.t;
  schedule : schedule;
  ttl : int;
  rng : Engine.Rng.t;
  srcs : Net.Asn.t array;  (* spec order: the deterministic probe order *)
  dsts : Net.Asn.t array;  (* destination ASes (default: all) *)
  dst_bits : int array;  (* host address of each destination's origin prefix *)
  dst_src_idx : int array;  (* each destination's index in [srcs], -1 if absent *)
  mutable epochs : epoch list;  (* newest first *)
  mutable probes_c : Engine.Metrics.Counter.t option;
  mutable delivered_c : Engine.Metrics.Counter.t option;
  dropped_by : (string, Engine.Metrics.Counter.t) Hashtbl.t;
}

let create ?(ttl = Net.Packet.default_ttl) ?(seed = 0) ?dsts net schedule =
  (match schedule with
  | All_pairs -> ()
  | Sampled_pairs k | Per_prefix k ->
    if k <= 0 then invalid_arg "Trafficgen.create: sample budget must be positive");
  let plan = Network.plan net in
  let all = Topology.Spec.asns (Network.spec net) in
  let srcs = Array.of_list all in
  let dsts = Array.of_list (Option.value dsts ~default:all) in
  if Array.length dsts = 0 then invalid_arg "Trafficgen.create: empty destination set";
  let dst_bits =
    Array.map (fun asn -> Net.Ipv4.addr_to_bits (plan.Addressing.host_addr asn)) dsts
  in
  let idx_in_srcs asn =
    let rec go i = if i >= Array.length srcs then -1 else if Net.Asn.equal srcs.(i) asn then i else go (i + 1) in
    go 0
  in
  let dst_src_idx = Array.map idx_in_srcs dsts in
  {
    net;
    schedule;
    ttl;
    rng = Engine.Rng.create seed;
    srcs;
    dsts;
    dst_bits;
    dst_src_idx;
    epochs = [];
    probes_c = None;
    delivered_c = None;
    dropped_by = Hashtbl.create 4;
  }

(* --- Metrics (lazy registration, per the switch counter idiom) ---------- *)

let metrics t = Engine.Sim.metrics (Network.sim t.net)

let probes_counter t =
  match t.probes_c with
  | Some c -> c
  | None ->
    let c =
      Engine.Metrics.counter (metrics t) ~help:"synthetic data-plane probes injected"
        "dataplane_probes_total"
    in
    t.probes_c <- Some c;
    c

let delivered_counter t =
  match t.delivered_c with
  | Some c -> c
  | None ->
    let c =
      Engine.Metrics.counter (metrics t) ~help:"synthetic probes delivered to destination host"
        "dataplane_probes_delivered_total"
    in
    t.delivered_c <- Some c;
    c

let dropped_counter t fate =
  let label = Net.Dataplane.fate_to_string fate in
  match Hashtbl.find_opt t.dropped_by label with
  | Some c -> c
  | None ->
    let c =
      Engine.Metrics.counter (metrics t) ~help:"synthetic probes lost in the data plane"
        ~labels:[ ("fate", label) ]
        "dataplane_probes_dropped_total"
    in
    Hashtbl.add t.dropped_by label c;
    c

(* --- Bursts ------------------------------------------------------------- *)

(* One probe against the frozen snapshot; accumulates into the census
   refs.  [si] is the dense snapshot index of the source. *)
let fire dp ~ttl ~si ~dst_bits ~delivered ~blackholed ~looped ~ttl_expired =
  let r = Net.Dataplane.forward dp ~src:si ~dst_bits ~ttl in
  match Net.Dataplane.result_fate_code r with
  | 0 -> incr delivered
  | 1 -> incr blackholed
  | 2 -> incr looped
  | _ -> incr ttl_expired

let burst ?snapshot t =
  let dp = match snapshot with Some dp -> dp | None -> Network.dataplane_snapshot t.net in
  let n = Array.length t.srcs in
  let nd = Array.length t.dsts in
  let idx i = Net.Dataplane.index_of dp (Net.Asn.to_int t.srcs.(i)) in
  let injected = ref 0
  and delivered = ref 0
  and blackholed = ref 0
  and looped = ref 0
  and ttl_expired = ref 0 in
  let probe ~si ~di =
    incr injected;
    fire dp ~ttl:t.ttl ~si ~dst_bits:t.dst_bits.(di) ~delivered ~blackholed ~looped
      ~ttl_expired
  in
  (* a seeded source other than the destination itself *)
  let src_for d =
    let di = t.dst_src_idx.(d) in
    if di < 0 then Engine.Rng.int t.rng n
    else (di + 1 + Engine.Rng.int t.rng (n - 1)) mod n
  in
  (match t.schedule with
  | All_pairs ->
    for s = 0 to n - 1 do
      let si = idx s in
      for d = 0 to nd - 1 do
        if t.dst_src_idx.(d) <> s then probe ~si ~di:d
      done
    done
  | Sampled_pairs k ->
    for _ = 1 to k do
      let d = Engine.Rng.int t.rng nd in
      probe ~si:(idx (src_for d)) ~di:d
    done
  | Per_prefix k ->
    for d = 0 to nd - 1 do
      for _ = 1 to k do
        probe ~si:(idx (src_for d)) ~di:d
      done
    done);
  let e =
    {
      at = Network.now t.net;
      injected = !injected;
      delivered = !delivered;
      blackholed = !blackholed;
      looped = !looped;
      ttl_expired = !ttl_expired;
    }
  in
  t.epochs <- e :: t.epochs;
  Engine.Metrics.Counter.add (probes_counter t) e.injected;
  Engine.Metrics.Counter.add (delivered_counter t) e.delivered;
  if e.blackholed > 0 then
    Engine.Metrics.Counter.add (dropped_counter t Net.Dataplane.Blackholed) e.blackholed;
  if e.looped > 0 then
    Engine.Metrics.Counter.add (dropped_counter t Net.Dataplane.Looped) e.looped;
  if e.ttl_expired > 0 then
    Engine.Metrics.Counter.add (dropped_counter t Net.Dataplane.Ttl_expired) e.ttl_expired;
  e

let epochs t = List.rev t.epochs
