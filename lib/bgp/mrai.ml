(* Per-peer outbound update scheduling under the
   MinRouteAdvertisementInterval.

   Semantics (matching Quagga's behaviour): the first advertisement after
   an idle period goes out immediately and arms the timer; while the timer
   runs, changes coalesce in a pending set (later changes for the same
   prefix replace earlier ones — only the latest state is ever sent); on
   expiry the pending set is flushed as one UPDATE and the timer re-arms
   only if something was flushed.  Explicit withdrawals bypass the timer
   unless [mrai_on_withdrawals] is set. *)

module Pm = Net.Ipv4.Prefix_map
module Ps = Net.Ipv4.Prefix_set

type pending = Announce of Attrs.t | Withdraw

type t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  config : Config.t;
  send : Message.update -> unit;
  timer : Engine.Timer.t;
  mutable pending : pending Pm.t;
  (* MRAI-exempt withdrawals awaiting the end-of-event flush: sent even
     while the timer runs, without touching it. *)
  mutable urgent : Ps.t;
  (* Set once per event on the first enqueue; cleared by [flush_event].
     The owner's [on_dirty] hook collects dirty peers so one scheduler
     event emits one packed UPDATE per peer. *)
  mutable dirty : bool;
  mutable on_dirty : (unit -> unit) option;
  mutable flushes : int;
  deferrals_c : Engine.Metrics.Counter.t;
  flushes_c : Engine.Metrics.Counter.t;
}

let split_pending pending =
  let announced, withdrawn =
    Pm.fold
      (fun prefix p (ann, wd) ->
        match p with
        | Announce attrs -> ((prefix, attrs) :: ann, wd)
        | Withdraw -> (ann, prefix :: wd))
      pending ([], [])
  in
  (List.rev announced, List.rev withdrawn)

let rec flush t =
  if not (Pm.is_empty t.pending) then begin
    let announced, withdrawn = split_pending t.pending in
    t.pending <- Pm.empty;
    t.flushes <- t.flushes + 1;
    Engine.Metrics.Counter.inc t.flushes_c;
    t.send { Message.announced; withdrawn };
    arm t
  end

and arm t = Engine.Timer.start t.timer (Config.jittered_mrai t.config t.rng)

let is_throttled t = Engine.Timer.is_armed t.timer

(* End-of-event flush: everything enqueued within the current scheduler
   event leaves as one packed UPDATE.  While the MRAI timer runs only the
   exempt withdrawals go out (the pending set stays for timer expiry);
   otherwise pending and exempt changes share the message, and the timer
   arms only when throttle-subject changes were flushed — an urgent-only
   message never starts an MRAI interval (same as the old immediate
   exempt-withdrawal path). *)
let flush_event t =
  t.dirty <- false;
  if is_throttled t then begin
    if not (Ps.is_empty t.urgent) then begin
      let withdrawn = Ps.elements t.urgent in
      t.urgent <- Ps.empty;
      t.send { Message.announced = []; withdrawn }
    end
  end
  else if not (Pm.is_empty t.pending && Ps.is_empty t.urgent) then begin
    let announced, withdrawn = split_pending t.pending in
    let withdrawn =
      List.merge Net.Ipv4.compare_prefix withdrawn (Ps.elements t.urgent)
    in
    let had_pending = not (Pm.is_empty t.pending) in
    t.pending <- Pm.empty;
    t.urgent <- Ps.empty;
    if had_pending then begin
      t.flushes <- t.flushes + 1;
      Engine.Metrics.Counter.inc t.flushes_c
    end;
    t.send { Message.announced; withdrawn };
    if had_pending then arm t
  end

(* Without a registered owner the flush degenerates to per-enqueue sends —
   the pre-batching behavior (used by direct Mrai drivers in tests). *)
let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    match t.on_dirty with Some f -> f () | None -> flush_event t
  end

let set_on_dirty t f = t.on_dirty <- Some f

let create sim ~rng ~config ~send =
  (* The timer callback needs the record and the record needs the timer;
     tie the knot through a reference. *)
  let self = ref None in
  let callback () = match !self with Some t -> flush t | None -> () in
  (* All per-peer instances share the same unlabeled series — idempotent
     registration returns the same handle each time. *)
  let m = Engine.Sim.metrics sim in
  let t =
    {
      sim;
      rng;
      config;
      send;
      timer = Engine.Timer.create ~category:"bgp.mrai" sim ~callback;
      pending = Pm.empty;
      urgent = Ps.empty;
      dirty = false;
      on_dirty = None;
      flushes = 0;
      deferrals_c =
        Engine.Metrics.counter m ~help:"route changes deferred by a running MRAI timer"
          "bgp_mrai_deferrals_total";
      flushes_c =
        Engine.Metrics.counter m ~help:"batched UPDATE flushes" "bgp_mrai_flushes_total";
    }
  in
  self := Some t;
  t

let pending_count t = Pm.cardinal t.pending

let flushes t = t.flushes

let enqueue_announce t prefix attrs =
  t.pending <- Pm.add prefix (Announce attrs) t.pending;
  t.urgent <- Ps.remove prefix t.urgent;
  if is_throttled t then Engine.Metrics.Counter.inc t.deferrals_c else mark_dirty t

let enqueue_withdraw t prefix =
  if t.config.Config.mrai_on_withdrawals then begin
    t.pending <- Pm.add prefix Withdraw t.pending;
    t.urgent <- Ps.remove prefix t.urgent;
    if is_throttled t then Engine.Metrics.Counter.inc t.deferrals_c else mark_dirty t
  end
  else begin
    (* Withdrawals are exempt from MRAI: cancel any pending announcement
       for the prefix and send the withdrawal at end of event, leaving
       the timer state untouched. *)
    t.pending <- Pm.remove prefix t.pending;
    t.urgent <- Ps.add prefix t.urgent;
    mark_dirty t
  end

(* Session reset: drop pending state and stop the timer. *)
let reset t =
  t.pending <- Pm.empty;
  t.urgent <- Ps.empty;
  t.dirty <- false;
  Engine.Timer.cancel t.timer

