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

type prof_cell = { mutable p_events : int; mutable p_seconds : float }

(* Everything the scheduler keeps per event category, resolved once per
   [schedule_at] so executing an event touches no string-keyed table. *)
type cat = {
  c_name : string;
  c_trace : int; (* the category's index in the causal store *)
  c_scheduled : Metrics.Counter.t;
  mutable c_executed : Metrics.Counter.t option; (* registered at first execution *)
  mutable c_prof : prof_cell option; (* created at first profiled execution *)
}

type event = {
  at_us : int; (* firing instant, [Time.to_us]: the queue orders on (at_us, seq) *)
  seq : int;
  cat : cat;
  span : int; (* causal span id, -1 when tracing is disabled *)
  mutable cancelled : bool;
  action : unit -> unit;
}

type handle = event

type profile_row = { category : string; events : int; seconds : float }

type t = {
  mutable now : Time.t;
  mutable next_seq : int;
  mutable executed : int;
  mutable queue : event array; (* binary min-heap on (at_us, seq), first [size] slots *)
  mutable size : int;
  rng : Rng.t;
  causal : Causal.t;
  metrics : Metrics.t;
  mutable profiling : bool;
  mutable cats : cat array; (* first [ncats] slots used, in first-use order *)
  mutable ncats : int;
  reaped : Metrics.Counter.t;
  mutable on_wake : (unit -> unit) list;
}

let dummy_cat =
  {
    c_name = "";
    c_trace = 0;
    c_scheduled = Metrics.counter (Metrics.create ()) "unused";
    c_executed = None;
    c_prof = None;
  }

let dummy_event =
  {
    at_us = 0;
    seq = -1;
    cat = dummy_cat;
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
    queue = Array.make 1024 dummy_event;
    size = 0;
    rng = Rng.create seed;
    causal = Causal.create ~mode:causal ~seed ();
    metrics;
    profiling = false;
    cats = Array.make 16 dummy_cat;
    ncats = 0;
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

let trace_node t name = Causal.intern_node t.causal name

let with_span t ~category ?node ?label f =
  Causal.with_span t.causal ~category ?node ?label ~at:t.now f

let metrics t = t.metrics

let pending t = t.size

let executed t = t.executed

let set_profiling t flag = t.profiling <- flag

let profile t =
  Array.fold_left
    (fun acc c ->
      match c.c_prof with
      | Some cell -> { category = c.c_name; events = cell.p_events; seconds = cell.p_seconds } :: acc
      | None -> acc)
    [] (Array.sub t.cats 0 t.ncats)
  |> List.sort (fun a b -> String.compare a.category b.category)

(* Categories are few and nearly always string literals, so a scan by
   physical equality resolves them without hashing or comparing strings;
   a string built at run time falls back to a scan by value. *)
let new_cat t name =
  let c =
    {
      c_name = name;
      c_trace = Causal.intern_category t.causal name;
      c_scheduled =
        Metrics.counter t.metrics ~labels:[ ("category", name) ] "sim_events_scheduled_total";
      c_executed = None;
      c_prof = None;
    }
  in
  if t.ncats = Array.length t.cats then begin
    let cats = Array.make (2 * t.ncats) dummy_cat in
    Array.blit t.cats 0 cats 0 t.ncats;
    t.cats <- cats
  end;
  t.cats.(t.ncats) <- c;
  t.ncats <- t.ncats + 1;
  c

(* Top-level, not local closures over [t] and [name], so resolving a
   category allocates nothing. *)
let rec cat_by_value t name i =
  if i = t.ncats then new_cat t name
  else if String.equal t.cats.(i).c_name name then t.cats.(i)
  else cat_by_value t name (i + 1)

let rec cat_by_address t name i =
  if i = t.ncats then cat_by_value t name 0
  else
    let c = Array.unsafe_get t.cats i in
    if c.c_name == name then c else cat_by_address t name (i + 1)

let resolve_cat t name = cat_by_address t name 0

(* The event queue: a binary min-heap on (at_us, seq) specialized to
   events, so ordering two events is two int comparisons. *)
let earlier a b = a.at_us < b.at_us || (a.at_us = b.at_us && a.seq < b.seq)

(* Sift [ev] up from hole [i].  The sifts are top-level functions, not
   closures over the queue, so pushing and popping allocate nothing. *)
let rec sift_up q ev i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let p = q.(parent) in
    if earlier ev p then begin
      q.(i) <- p;
      sift_up q ev parent
    end
    else q.(i) <- ev
  end
  else q.(i) <- ev

let push t ev =
  if t.size = Array.length t.queue then begin
    let q = Array.make (2 * t.size) dummy_event in
    Array.blit t.queue 0 q 0 t.size;
    t.queue <- q
  end;
  sift_up t.queue ev t.size;
  t.size <- t.size + 1

(* Sift [last] down from hole [i] of the first [n] cells. *)
let rec sift_down q last n i =
  let l = (2 * i) + 1 in
  if l >= n then q.(i) <- last
  else begin
    let r = l + 1 in
    let c = if r < n && earlier q.(r) q.(l) then r else l in
    if earlier q.(c) last then begin
      q.(i) <- q.(c);
      sift_down q last n c
    end
    else q.(i) <- last
  end

(* Remove and return the earliest event; the queue must be non-empty. *)
let pop t =
  let q = t.queue in
  let top = q.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let last = q.(n) in
  q.(n) <- dummy_event;
  if n > 0 then sift_down q last n 0;
  top

let schedule_at ?(category = "event") t fire_at action =
  if Time.(fire_at < t.now) then
    invalid_arg
      (Fmt.str "Sim.schedule_at: %a is in the past (now %a)" Time.pp fire_at Time.pp t.now);
  let cat = resolve_cat t category in
  let span = Causal.on_schedule t.causal ~category:cat.c_trace ~queued_at:t.now in
  let ev =
    { at_us = Time.to_us fire_at; seq = t.next_seq; cat; span; cancelled = false; action }
  in
  t.next_seq <- t.next_seq + 1;
  Metrics.Counter.inc cat.c_scheduled;
  let was_empty = t.size = 0 in
  push t ev;
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
      match ev.cat.c_prof with
      | Some c -> c
      | None ->
        let c = { p_events = 0; p_seconds = 0.0 } in
        ev.cat.c_prof <- Some c;
        c
    in
    cell.p_events <- cell.p_events + 1;
    cell.p_seconds <- cell.p_seconds +. dt
  end
  else ev.action ()

let execute t ev =
  t.now <- Time.of_us ev.at_us;
  t.executed <- t.executed + 1;
  let executed =
    match ev.cat.c_executed with
    | Some c -> c
    | None ->
      let c =
        Metrics.counter t.metrics ~labels:[ ("category", ev.cat.c_name) ]
          "sim_events_executed_total"
      in
      ev.cat.c_executed <- Some c;
      c
  in
  Metrics.Counter.inc executed;
  if Causal.enabled t.causal then begin
    Causal.on_execute t.causal ev.span ~fired_at:t.now;
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
  if t.size = 0 then false
  else begin
    let ev = pop t in
    if ev.cancelled then begin
      note_reaped t;
      step t
    end
    else begin
      execute t ev;
      true
    end
  end

type run_result = Exhausted | Reached_limit | Reached_time of Time.t

let run ?until ?(max_events = max_int) t =
  let rec loop remaining =
    if remaining = 0 then Reached_limit
    else
      if t.size = 0 then Exhausted
      else begin
        let ev = t.queue.(0) in
        if ev.cancelled then begin
          ignore (pop t);
          note_reaped t;
          loop remaining
        end
        else
          match until with
          | Some stop when Time.(of_us ev.at_us > stop) ->
            t.now <- stop;
            Reached_time stop
          | Some _ | None -> if step t then loop (remaining - 1) else Exhausted
      end
  in
  loop max_events
