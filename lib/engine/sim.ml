(* Deterministic discrete-event scheduler.

   Events fire in (time, insertion sequence) order, so two events scheduled
   for the same instant run in the order they were scheduled — this plus the
   splittable RNG makes whole experiment runs bit-reproducible.

   Observability: every event carries a category string; the scheduler
   counts scheduled/executed/reaped events per category in its metrics
   registry (deterministic — safe to export), and, when profiling is
   enabled, additionally accumulates per-category wall-clock self time in
   a separate table that deliberately stays OUT of the registry so metric
   exports remain byte-identical across runs of the same seed. *)

type event = {
  fire_at : Time.t;
  seq : int;
  category : string;
  span : int; (* causal span id, -1 when tracing is disabled *)
  mutable cancelled : bool;
  action : unit -> unit;
}

type handle = event

type profile_row = { category : string; events : int; seconds : float }

type prof_cell = { mutable p_events : int; mutable p_seconds : float }

type t = {
  mutable now : Time.t;
  mutable next_seq : int;
  mutable executed : int;
  queue : event Heap.t;
  rng : Rng.t;
  causal : Causal.t;
  metrics : Metrics.t;
  mutable profiling : bool;
  profile : (string, prof_cell) Hashtbl.t;
  scheduled_by : (string, Metrics.Counter.t) Hashtbl.t;
  executed_by : (string, Metrics.Counter.t) Hashtbl.t;
  reaped : Metrics.Counter.t;
  mutable on_wake : (unit -> unit) list;
}

let compare_event a b =
  let c = Time.compare a.fire_at b.fire_at in
  if c <> 0 then c else compare a.seq b.seq

let dummy_event =
  {
    fire_at = Time.zero;
    seq = -1;
    category = "";
    span = -1;
    cancelled = true;
    action = ignore;
  }

let create ?(seed = 0) ?(causal = Causal.Disabled) () =
  let metrics = Metrics.create () in
  {
    now = Time.zero;
    next_seq = 0;
    executed = 0;
    queue = Heap.create ~capacity:1024 ~dummy:dummy_event compare_event;
    rng = Rng.create seed;
    causal = Causal.create ~mode:causal ~seed ();
    metrics;
    profiling = false;
    profile = Hashtbl.create 16;
    scheduled_by = Hashtbl.create 16;
    executed_by = Hashtbl.create 16;
    reaped =
      Metrics.counter metrics ~help:"cancelled events reaped from the queue"
        "sim_events_cancelled_total";
    on_wake = [];
  }

let now t = t.now

let rng t = t.rng

let causal t = t.causal

let annotate t ~category ?node ?label () =
  Causal.annotate t.causal ~category ?node ?label ~at:t.now ()

let mark t ~category ~node ~render arg = Causal.mark t.causal ~category ~node ~render arg ~at:t.now

let with_span t ~category ?node ?label f =
  Causal.with_span t.causal ~category ?node ?label ~at:t.now f

let metrics t = t.metrics

let pending t = Heap.length t.queue

let executed t = t.executed

let set_profiling t flag = t.profiling <- flag

let profiling t = t.profiling

let profile t =
  Hashtbl.fold
    (fun category cell acc ->
      { category; events = cell.p_events; seconds = cell.p_seconds } :: acc)
    t.profile []
  |> List.sort (fun a b -> String.compare a.category b.category)

let pp_profile ppf t =
  Fmt.pf ppf "%-24s %10s %12s@." "category" "events" "self-s";
  List.iter
    (fun r -> Fmt.pf ppf "%-24s %10d %12.6f@." r.category r.events r.seconds)
    (profile t)

let category_counter cache metrics name category =
  match Hashtbl.find_opt cache category with
  | Some c -> c
  | None ->
    let c = Metrics.counter metrics ~labels:[ ("category", category) ] name in
    Hashtbl.replace cache category c;
    c

let schedule_at ?(category = "event") t fire_at action =
  if Time.(fire_at < t.now) then
    invalid_arg
      (Fmt.str "Sim.schedule_at: %a is in the past (now %a)" Time.pp fire_at Time.pp t.now);
  let span = Causal.on_schedule t.causal ~category ~queued_at:t.now in
  let ev = { fire_at; seq = t.next_seq; category; span; cancelled = false; action } in
  t.next_seq <- t.next_seq + 1;
  Metrics.Counter.inc
    (category_counter t.scheduled_by t.metrics "sim_events_scheduled_total" category);
  let was_empty = Heap.length t.queue = 0 in
  Heap.push t.queue ev;
  (* Notify after the push so a hook's own scheduling sees a non-empty
     queue and cannot re-trigger the transition. *)
  if was_empty then List.iter (fun f -> f ()) t.on_wake;
  ev

let schedule_after ?category t span action =
  schedule_at ?category t (Time.add t.now span) action

let on_wake t f = t.on_wake <- t.on_wake @ [ f ]

let cancel ev = ev.cancelled <- true

let cancelled ev = ev.cancelled

let note_reaped t = Metrics.Counter.inc t.reaped

let run_action t ev =
  if t.profiling then begin
    let t0 = Sys.time () in
    ev.action ();
    let dt = Sys.time () -. t0 in
    let cell =
      match Hashtbl.find_opt t.profile ev.category with
      | Some c -> c
      | None ->
        let c = { p_events = 0; p_seconds = 0.0 } in
        Hashtbl.replace t.profile ev.category c;
        c
    in
    cell.p_events <- cell.p_events + 1;
    cell.p_seconds <- cell.p_seconds +. dt
  end
  else ev.action ()

let execute t ev =
  t.now <- ev.fire_at;
  t.executed <- t.executed + 1;
  Metrics.Counter.inc
    (category_counter t.executed_by t.metrics "sim_events_executed_total" ev.category);
  if Causal.enabled t.causal then begin
    Causal.on_execute t.causal ev.span ~fired_at:ev.fire_at;
    match run_action t ev with
    | () -> Causal.clear_current t.causal
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Causal.clear_current t.causal;
      Printexc.raise_with_backtrace e bt
  end
  else run_action t ev

(* Run one event; returns false when the queue is exhausted. *)
let rec step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev when ev.cancelled ->
    note_reaped t;
    step t
  | Some ev ->
    execute t ev;
    true

type run_result = Exhausted | Reached_limit | Reached_time of Time.t

let run ?until ?(max_events = max_int) t =
  let rec loop remaining =
    if remaining = 0 then Reached_limit
    else
      match Heap.peek t.queue with
      | None -> Exhausted
      | Some ev when ev.cancelled ->
        ignore (Heap.pop t.queue);
        note_reaped t;
        loop remaining
      | Some ev -> (
        match until with
        | Some stop when Time.(ev.fire_at > stop) ->
          t.now <- stop;
          Reached_time stop
        | Some _ | None ->
          if step t then loop (remaining - 1) else Exhausted)
  in
  loop max_events
