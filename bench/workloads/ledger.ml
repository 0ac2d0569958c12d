(* The benchmark's metrics: the end-to-end set a user of the simulator
   sees (measured with tracing off) and the per-layer ledger of a traced
   run.  These tables are the source BENCHMARK.json must agree with
   ([main.exe --check-manifest]). *)

open Workloads

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type spec = { name : string; unit : string; better : better; bound : float option }

let spec ?bound name unit better = { name; unit; better; bound }

(* [bound]: the share of the parent's median by which the metric may get
   worse before a change counts as a regression. *)
let end_to_end =
  [
    spec "setup_s" "s" Lower ~bound:0.25;
    spec "runs_per_s" "run/s" Higher ~bound:0.25;
    spec "load_updates_per_s" "UPDATE/s" Higher ~bound:0.25;
    spec "withdraw_updates_per_s" "UPDATE/s" Higher ~bound:0.25;
    spec "peak_live_mb" "MB" Lower ~bound:0.1;
  ]

(* Scheduler categories that the workloads execute, each with its own
   profile rows. *)
let categories = [ "bgp.process"; "bgp.mrai"; "net.deliver"; "ctrl.recompute" ]

(* The ROADMAP's layer grouping of scheduler categories. *)
let groups =
  [
    ("net", [ "net.deliver"; "link"; "data" ]);
    ("node", [ "node"; "node.deliver" ]);
    ("bgp", [ "bgp.process"; "bgp.update"; "bgp"; "bgp.damping" ]);
    ("mrai", [ "bgp.mrai" ]);
    ("session", [ "bgp.liveness"; "bgp.reconnect"; "speaker.liveness"; "sdn.liveness" ]);
    ("ctrl", [ "ctrl.recompute"; "controller"; "speaker"; "speaker.relay" ]);
    ("flow", [ "switch"; "sdn.timeout" ]);
    ("dataplane", [ "trafficgen" ]);
  ]

(* Registry counters summed over their label sets, reported per run. *)
let counters =
  [
    ("bgp.decision_runs", "bgp_decision_runs_total");
    ("bgp.best_changes", "bgp_best_changes_total");
    ("bgp.updates_sent", "bgp_updates_sent_total");
    ("bgp.mrai_deferrals", "bgp_mrai_deferrals_total");
    ("bgp.mrai_flushes", "bgp_mrai_flushes_total");
    ("net.messages_delivered", "net_messages_delivered_total");
    ("net.messages_dropped", "net_messages_dropped_total");
    ("ctrl.recompute_total", "controller_recompute_total");
    ("ctrl.prefixes_recomputed", "controller_prefixes_recomputed_total");
    ("ctrl.dijkstra_runs", "controller_dijkstra_runs_total");
    ("ctrl.flow_mods", "controller_flow_mods_total");
    ("sdn.flow_table_misses", "sdn_flow_table_misses_total");
  ]

let per_layer =
  List.concat
    [
      List.map
        (fun p -> spec (phase_name p ^ "_ms") "ms/run" Lower)
        [ Build; Create; Bootstrap; Load; Withdraw ];
      [
        spec "sim.events" "event/run" Lower;
        spec "sim.dispatch_ns_per_event" "ns/event" Lower;
        spec "gc.minor_words_per_event" "word/event" Lower;
        spec "gc.major_collections" "count/run" Lower;
        spec "causal.ring_cost_ratio" "ratio" Lower;
        spec "causal.ring_minor_words_per_event" "word/event" Lower;
        spec "tracing.profile_overhead_ratio" "ratio" Lower;
      ];
      List.concat_map
        (fun c ->
          [
            spec ("prof." ^ c ^ ".events") "event/run" Lower;
            spec ("prof." ^ c ^ ".self_ns_per_event") "ns/event" Lower;
            spec ("prof." ^ c ^ ".share") "share" Lower;
          ])
        categories;
      List.map (fun (name, _) -> spec name "count/run" Lower) counters;
      [
        spec "ctrl.recompute_useful_ratio" "share" Higher;
        spec "rib.loc_routes" "route" Lower;
        spec "rib.adj_in_routes" "route" Lower;
        spec "attrs.distinct" "count" Lower;
        spec "heap.words_per_route" "word/route" Lower;
        spec "dataplane.snapshots" "count/run" Lower;
        spec "dataplane.snapshot_us" "us/snapshot" Lower;
        spec "dataplane.burst_ns_per_probe" "ns/probe" Lower;
        spec "dataplane.forward_ns_per_probe" "ns/probe" Lower;
        spec "dataplane.flood_minor_words_per_probe" "word/probe" Lower;
        spec "dataplane.burst_probes_per_s" "probe/s" Higher;
        spec "dataplane.flood_probes_per_s" "probe/s" Higher;
        spec "fwd_verify_ms" "ms/run" Lower;
      ];
      List.map
        (fun g -> spec ("layer." ^ g ^ ".share") "share" Lower)
        ([ "setup"; "sched" ] @ List.map fst groups @ [ "tracing"; "other" ]);
      [
        spec "run.ms_p50" "ms/run" Lower;
        spec "run.ms_p90" "ms/run" Lower;
        spec "run.n" "count" Higher;
      ];
    ]

(* --- Statistics --------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (the exclusive
   method) gives them, so q1/q3 here match the acceptance arithmetic. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* --- Windows ------------------------------------------------------------------ *)

type sample = {
  run : run;
  seconds : float;  (** wall time of the whole run *)
  minor_words : float;
  major_collections : int;
}

(* One slot of a window.  Its first repeat is the probe: it measures the
   live heap, and warms caches and lazy set-up, untimed.  Of the later
   repeats each unit keeps its fastest: the host's co-tenants only ever
   slow a unit down, so the fastest of several repeats of identical work
   is the steady estimate of its cost. *)
type slot = { first : sample; mutable phases : phase array; mutable best : float array }

type window = { slots : (int, slot) Hashtbl.t; mutable samples : sample list (** timed repeats *) }

let new_window () = { slots = Hashtbl.create 64; samples = [] }

let has w k = Hashtbl.mem w.slots k

(* Repeats of a slot have the same units: the caller has already
   compared their fingerprints, which count them. *)
let add w k s =
  match Hashtbl.find_opt w.slots k with
  | None -> Hashtbl.replace w.slots k { first = s; phases = [||]; best = [||] }
  | Some sl ->
    let units = Array.of_list (List.rev s.run.units) in
    w.samples <- s :: w.samples;
    if sl.best = [||] then begin
      sl.phases <- Array.map fst units;
      sl.best <- Array.map snd units
    end
    else Array.iteri (fun i (_, t) -> if t < sl.best.(i) then sl.best.(i) <- t) units

(* Slots with at least one timed repeat. *)
let timed_slots w = Hashtbl.fold (fun _ sl n -> if sl.best = [||] then n else n + 1) w.slots 0

let slots w = Hashtbl.fold (fun _ sl acc -> sl :: acc) w.slots []

let best_sum pred sl =
  let acc = ref 0.0 in
  Array.iteri (fun i p -> if pred p then acc := !acc +. sl.best.(i)) sl.phases;
  !acc

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let sumi f xs = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Fastest-repeat seconds of [pred]'s units, over the window's slots. *)
let best_total w pred = sum (best_sum pred) (slots w)

let any _ = true

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* --- End-to-end ------------------------------------------------------------------- *)

(* The end-to-end metrics of an untraced window: work in one pass over
   the fastest-repeat time of the units that did it. *)
let end_to_end_values w =
  let sl = slots w in
  let updates f = sumi (fun s -> f s.first.run) sl in
  [
    ("setup_s", median (List.map (best_sum is_setup) sl));
    ("runs_per_s", ratio (float_of_int (List.length sl)) (best_total w any));
    ("load_updates_per_s", ratio (updates (fun r -> r.load_updates)) (best_total w (( = ) Load)));
    ( "withdraw_updates_per_s",
      ratio (updates (fun r -> r.withdraw_updates)) (best_total w (( = ) Withdraw)) );
    ("peak_live_mb", mb (List.fold_left (fun m sl -> max m sl.first.run.live_words) 0 sl));
  ]

(* --- Per layer -------------------------------------------------------------------- *)

let self_of samples pred =
  sum
    (fun s ->
      List.fold_left
        (fun acc (row : Engine.Sim.profile_row) -> if pred row.category then acc +. row.seconds else acc)
        0.0 s.run.profile)
    samples

let events_of samples cat =
  sumi
    (fun s ->
      List.fold_left
        (fun acc (row : Engine.Sim.profile_row) -> if row.category = cat then acc + row.events else acc)
        0 s.run.profile)
    samples

let registry_sum s series =
  match s.run.registry with
  | None -> 0.0
  | Some snap ->
    List.fold_left
      (fun acc (smp : Engine.Metrics.sample) ->
        match smp.Engine.Metrics.value with
        | Engine.Metrics.Counter_v v when smp.Engine.Metrics.name = series -> acc +. float_of_int v
        | _ -> acc)
      0.0 snap.Engine.Metrics.samples

(* The per-layer ledger of a traced window.  [profiled] runs carry the
   scheduler profile and the registry; [plain] (the default causal ring)
   and [no_ring] ([Causal.Disabled]) ran the same slots untraced.  Phase
   and data-plane times are the plain runs' fastest repeats; shares are
   of the profiled runs' wall time. *)
let per_layer_values ~plain ~profiled ~no_ring =
  let prof = profiled.samples in
  let n = float_of_int (List.length prof) in
  let per_run x = ratio x n in
  let plain_slots = float_of_int (Hashtbl.length plain.slots) in
  let best_ms pred = ratio (best_total plain pred) plain_slots *. 1e3 in
  let wall_total = sum (fun s -> s.seconds) prof in
  let events = sumi (fun s -> s.run.events) prof in
  let self_total = self_of prof (fun _ -> true) in
  let cpu p = sum (fun s -> s.run.cpu.(phase_index p)) prof in
  let dispatch = cpu Bootstrap +. cpu Load +. cpu Withdraw -. self_total in
  let words_per_event w = ratio (sum (fun s -> s.minor_words) w.samples) (sumi (fun s -> s.run.events) w.samples) in
  let plain_best = best_total plain any and no_ring_best = best_total no_ring any in
  let mapped = List.concat_map snd groups in
  let group_share cats = ratio (self_of prof (fun c -> List.mem c cats)) wall_total in
  let per_slot f = ratio (sumi (fun sl -> f sl.first.run) (slots plain)) plain_slots in
  let snapshots = sumi (fun sl -> sl.first.run.snapshots) (slots plain) in
  let burst_probes = sumi (fun sl -> sl.first.run.burst_probes) (slots plain) in
  let flood_probes = sumi (fun sl -> sl.first.run.flood_probes) (slots plain) in
  let dp_wall = sum (fun s -> sum (fun p -> wall s.run p) [ Snapshot; Burst; Flood; Verify ]) prof in
  let recomputes = sum (fun s -> registry_sum s "controller_recompute_total") prof in
  let skipped = sum (fun s -> registry_sum s "controller_recompute_skipped_total") prof in
  let routes = sumi (fun sl -> sl.first.run.loc_routes + sl.first.run.adj_in_routes) (slots plain) in
  let run_ms = List.map (fun s -> s.seconds *. 1e3) plain.samples in
  List.concat
    [
      List.map (fun p -> (phase_name p ^ "_ms", best_ms (( = ) p))) [ Build; Create; Bootstrap; Load; Withdraw ];
      [
        ("sim.events", per_run events);
        ("sim.dispatch_ns_per_event", ratio dispatch events *. 1e9);
        ("gc.minor_words_per_event", words_per_event plain);
        ("gc.major_collections", ratio (sumi (fun s -> s.major_collections) plain.samples) (float_of_int (List.length plain.samples)));
        ("causal.ring_cost_ratio", ratio plain_best no_ring_best);
        ("causal.ring_minor_words_per_event", words_per_event plain -. words_per_event no_ring);
        ("tracing.profile_overhead_ratio", ratio (best_total profiled any) plain_best);
      ];
      List.concat_map
        (fun c ->
          let ev = events_of prof c and self = self_of prof (String.equal c) in
          [
            ("prof." ^ c ^ ".events", per_run ev);
            ("prof." ^ c ^ ".self_ns_per_event", ratio self ev *. 1e9);
            ("prof." ^ c ^ ".share", ratio self self_total);
          ])
        categories;
      List.map (fun (name, series) -> (name, per_run (sum (fun s -> registry_sum s series) prof))) counters;
      [
        ("ctrl.recompute_useful_ratio", if recomputes > 0.0 then 1.0 -. (skipped /. recomputes) else 0.0);
        ("rib.loc_routes", per_slot (fun r -> r.loc_routes));
        ("rib.adj_in_routes", per_slot (fun r -> r.adj_in_routes));
        ("attrs.distinct", per_slot (fun r -> r.attrs_distinct));
        ("heap.words_per_route", ratio (sumi (fun sl -> sl.first.run.live_words) (slots plain)) routes);
        ("dataplane.snapshots", per_slot (fun r -> r.snapshots));
        ("dataplane.snapshot_us", ratio (best_total plain (( = ) Snapshot)) snapshots *. 1e6);
        ("dataplane.burst_ns_per_probe", ratio (best_total plain (( = ) Burst)) burst_probes *. 1e9);
        ("dataplane.forward_ns_per_probe", ratio (best_total plain (( = ) Flood)) flood_probes *. 1e9);
        ( "dataplane.flood_minor_words_per_probe",
          ratio (sum (fun sl -> sl.first.run.flood_minor_words) (slots plain)) flood_probes );
        ("dataplane.burst_probes_per_s", ratio burst_probes (best_total plain (( = ) Burst)));
        ("dataplane.flood_probes_per_s", ratio flood_probes (best_total plain (( = ) Flood)));
        ("fwd_verify_ms", best_ms (( = ) Verify));
        ("layer.setup.share", ratio (sum (fun s -> wall s.run Build +. wall s.run Create) prof) wall_total);
        ("layer.sched.share", ratio dispatch wall_total);
      ];
      List.map
        (fun (g, cats) ->
          let extra = if g = "dataplane" then ratio dp_wall wall_total else 0.0 in
          ("layer." ^ g ^ ".share", group_share cats +. extra))
        groups;
      [
        ("layer.tracing.share", ratio (plain_best -. no_ring_best) plain_best);
        ("layer.other.share", ratio (self_of prof (fun c -> not (List.mem c mapped))) wall_total);
        ("run.ms_p50", percentile run_ms 0.5);
        ("run.ms_p90", percentile run_ms 0.9);
        ("run.n", float_of_int (List.length plain.samples));
      ];
    ]
