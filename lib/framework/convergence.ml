(* Convergence detection.

   The framework's definition (matching the paper's tooling): the network
   has converged for a prefix when no routing state anywhere changes any
   more.  We instrument every decision point — each legacy router's
   Loc-RIB and each controller member decision.  Per prefix we keep the
   full change history — (time, AS) for every router best-path change
   and every controller decision change — from which the last change,
   the change count and the exploration rounds all follow.
   Because the emulation is a discrete-event simulation, "no more events"
   is an exact quiet-period test: [Network.settle] drains the queue and
   the convergence time is simply the last recorded change.

   A prefix's history is packed into one byte buffer: per change, the
   microseconds since the prefix's previous change (since time zero for
   its first), then the AS, each as an unsigned LEB128 varint (7 bits a
   byte, the high bit set on every byte but the last).  Changes come
   10-50 ms apart within a wave and an MRAI apart between waves, and
   private ASNs fit 3 bytes, so a change takes 5 or 6 bytes where two int
   array cells took 16; the count and the last instant sit beside the
   buffer so the hot queries read no byte of it.

   Attach the watcher *before* running the phase being measured. *)

module Tbl = Net.Ipv4.Prefix_table

(* Loc-RIB / decision changes of one prefix, oldest first: [len] bytes of
   [bytes] hold [count] (time delta, AS) varint pairs, the deltas summing
   to [last]. *)
type prefix_changes = {
  mutable count : int;
  mutable last : int; (* [Engine.Time.to_us] of the newest change *)
  mutable len : int;
  mutable bytes : Bytes.t;
}

let push pc byte =
  if pc.len = Bytes.length pc.bytes then begin
    let grown = Bytes.create (pc.len + (pc.len / 2) + 8) in
    Bytes.blit pc.bytes 0 grown 0 pc.len;
    pc.bytes <- grown
  end;
  Bytes.unsafe_set pc.bytes pc.len (Char.unsafe_chr byte);
  pc.len <- pc.len + 1

(* Any int round-trips; a negative one (never written: instants do not
   decrease) takes nine bytes. *)
let rec put pc v =
  if v land lnot 0x7f = 0 then push pc v
  else begin
    push pc (v land 0x7f lor 0x80);
    put pc (v lsr 7)
  end

let add_change pc time asn =
  put pc (time - pc.last);
  put pc asn;
  pc.last <- time;
  pc.count <- pc.count + 1

(* [f time asn] over the prefix's changes, oldest first. *)
let iter_changes pc f =
  let pos = ref 0 in
  let rec get shift v =
    let b = Char.code (Bytes.get pc.bytes !pos) in
    incr pos;
    let v = v lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then v else get (shift + 7) v
  in
  let time = ref 0 in
  for _ = 1 to pc.count do
    time := !time + get 0 0;
    f !time (get 0 0)
  done

type t = {
  changes : prefix_changes Tbl.t;
  mutable last_any : Engine.Time.t; (* latest control change, any prefix *)
  network : Network.t;
}

let record t prefix now asn =
  let key = Net.Ipv4.prefix_to_packed prefix in
  let pc =
    match Tbl.slot t.changes key with
    | -1 ->
      let pc = { count = 0; last = 0; len = 0; bytes = Bytes.empty } in
      ignore (Tbl.add t.changes key pc);
      pc
    | i -> Tbl.value t.changes i
  in
  add_change pc (Engine.Time.to_us now) (Net.Asn.to_int asn);
  t.last_any <- now

let attach network =
  let t =
    {
      changes = Tbl.create ();
      last_any = Engine.Time.zero;
      network;
    }
  in
  let m = Engine.Sim.metrics (Network.sim network) in
  let changes_c =
    Engine.Metrics.counter m ~help:"control-plane changes observed (any prefix)"
      "convergence_control_changes_total"
  in
  let last_change_g =
    Engine.Metrics.gauge m ~help:"simulated time of the last control-plane change"
      "convergence_last_change_seconds"
  in
  let note prefix asn =
    let now = Engine.Sim.now (Network.sim network) in
    record t prefix now asn;
    Engine.Metrics.Counter.inc changes_c;
    Engine.Metrics.Gauge.set last_change_g (Engine.Time.to_sec_f now)
  in
  Net.Asn.Map.iter
    (fun asn router -> Bgp.Router.subscribe_best_change router (fun prefix _ -> note prefix asn))
    (Network.routers network);
  (match Network.controller network with
  | Some ctrl ->
    Cluster_ctl.Controller.subscribe_decision_change ctrl (fun prefix member _ ->
        note prefix member)
  | None -> ());
  t

let last_control_change t prefix =
  match Tbl.find prefix t.changes with
  | Some pc -> Some (Engine.Time.of_us pc.last)
  | None -> None

let control_changes t prefix =
  match Tbl.find prefix t.changes with Some pc -> pc.count | None -> 0

let history t prefix =
  match Tbl.find prefix t.changes with
  | None -> []
  | Some pc ->
    let changes = ref [] in
    iter_changes pc (fun time asn ->
        changes := (Engine.Time.of_us time, Net.Asn.of_int asn) :: !changes);
    List.rev !changes

(* Path-exploration rounds: a prefix's changes cluster into MRAI-spaced
   waves; count the clusters of distinct change instants, splitting
   wherever consecutive instants are more than [gap] apart (use about
   half the MRAI).  This makes the mechanism behind Fig. 2 — "convergence
   time = rounds x MRAI" — a measurable quantity.  Change instants are
   recorded in simulated-time order, so a walk over them sees the distinct
   instants ascending. *)
let exploration_rounds ?(gap = Engine.Time.sec 10) ?(since = Engine.Time.zero) t prefix =
  match Tbl.find prefix t.changes with
  | None -> 0
  | Some pc ->
    let gap = Engine.Time.to_us gap and since = Engine.Time.to_us since in
    let rounds = ref 0 and prev = ref 0 in
    iter_changes pc (fun time _ ->
        if time >= since then begin
          if !rounds = 0 || time - !prev > gap then incr rounds;
          prev := time
        end);
    !rounds

(* Convergence time of an event on a prefix: run the network to
   quiescence, then report the interval from [event_time] to the last
   control-plane change for the prefix.  [None] if nothing changed after
   the event (e.g. the event was a no-op). *)
type measurement = {
  prefix : Net.Ipv4.prefix;
  event_time : Engine.Time.t;
  settled_at : Engine.Time.t;
  last_change : Engine.Time.t option;
  convergence : Engine.Time.span option;
  changes : int;
}

let measure ?(max_events = 10_000_000) ?(bounded = false) ?changes_before t ~prefix ~event_time =
  let changes_before =
    match changes_before with Some c -> c | None -> control_changes t prefix
  in
  if bounded then ignore (Engine.Sim.run ~max_events (Network.sim t.network))
  else ignore (Network.settle ~max_events t.network);
  let settled_at = Network.now t.network in
  let last_change =
    match last_control_change t prefix with
    | Some time when Engine.Time.(time >= event_time) -> Some time
    | Some _ | None -> None
  in
  let convergence = Option.map (fun c -> Engine.Time.diff c event_time) last_change in
  {
    prefix;
    event_time;
    settled_at;
    last_change;
    convergence;
    changes = control_changes t prefix - changes_before;
  }

(* Quiet-period convergence waiting: advance the simulation in [step]
   increments until no control-plane change has occurred for [quiet].
   This is the detection mode for experiments whose event queue never
   drains (periodic keepalives, endless probe streams) — the analogue of
   the original framework's "wait until BGP has converged" command. *)
let wait_quiet ?(step = Engine.Time.sec 1) ?(max_wait = Engine.Time.sec 7200) ~quiet t =
  let sim = Network.sim t.network in
  let deadline = Engine.Time.add (Engine.Sim.now sim) max_wait in
  let rec loop () =
    let now = Engine.Sim.now sim in
    let quiet_for = Engine.Time.diff now (Engine.Time.max t.last_any Engine.Time.zero) in
    if Engine.Time.(quiet_for >= quiet) then `Quiet now
    else if Engine.Time.(now >= deadline) then `Timeout now
    else begin
      match Engine.Sim.run ~until:(Engine.Time.add now step) sim with
      | Engine.Sim.Exhausted -> `Quiet (Engine.Sim.now sim)
      | Engine.Sim.Reached_time _ | Engine.Sim.Reached_limit -> loop ()
    end
  in
  loop ()
