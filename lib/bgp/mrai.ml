(* One peer's outbound side: Adj-RIB-Out and update queue in one table,
   paced by the MinRouteAdvertisementInterval.

   Semantics (matching Quagga's behaviour): the first advertisement after
   an idle period goes out immediately and arms the timer; while the timer
   runs, changes coalesce (later changes for the same prefix replace
   earlier ones — only the latest state is ever sent); on expiry the
   queued changes are flushed as one UPDATE and the timer re-arms only if
   something was flushed.  Explicit withdrawals bypass the timer unless
   [mrai_on_withdrawals] is set.

   Storage: one [Net.Ipv4.Prefix_table] of advertised attrs whose slot
   tags carry three bits — advertised, queued paced, queued exempt.  A
   withdrawal clears the advertised bit and queues the slot; the slot is
   freed when the withdrawal is sent.  A slot is never both paced and
   exempt.  [queue] holds the queued slots' prefixes (the values the
   UPDATE carries) in prefix order, so a flush touches only what it
   sends: it emits the advertised ones as announcements and the rest as
   withdrawals, and clears their bits. *)

module Tbl = Net.Ipv4.Prefix_table

let advertised_bit = 1

let paced_bit = 2

let exempt_bit = 4

let queued_bits = paced_bit lor exempt_bit

(* Every paced instance in a sim bumps the same two unlabeled series. *)
type telemetry = {
  deferrals_c : Engine.Metrics.Counter.t;
  flushes_c : Engine.Metrics.Counter.t;
}

let telemetry =
  Engine.Metrics.shared (fun m ->
      {
        deferrals_c =
          Engine.Metrics.counter m ~help:"route changes deferred by a running MRAI timer"
            "bgp_mrai_deferrals_total";
        flushes_c =
          Engine.Metrics.counter m ~help:"batched UPDATE flushes" "bgp_mrai_flushes_total";
      })

type pacing =
  | Unpaced (* every change is exempt *)
  | Paced of {
      sim : Engine.Sim.t;
      rng : Engine.Rng.t;
      config : Config.t;
      tm : telemetry;
      mutable timer : Engine.Timer.t option; (* made when the first paced flush arms it *)
    }

(* An owner's batch scope, shared by all its tables (see [enter]). *)
type batch = { mutable depth : int; mutable any_dirty : bool }

let batch () = { depth = 0; any_dirty = false }

let enter b = b.depth <- b.depth + 1

let leave b =
  b.depth <- b.depth - 1;
  b.depth = 0 && b.any_dirty
  && begin
       b.any_dirty <- false;
       true
     end

type t = {
  send : Message.update -> unit;
  out : Attrs.t Tbl.t;
  mutable queue : Net.Ipv4.prefix array; (* first [paced + exempt]; [||] when none *)
  mutable paced : int; (* slots with [paced_bit] *)
  mutable exempt : int; (* slots with [exempt_bit] *)
  (* Set once per event on the first queued change; cleared by
     [flush_event].  Inside its owner's batch scope the change only marks
     the batch, so one scheduler event emits one packed UPDATE per peer. *)
  mutable dirty : bool;
  batch : batch;
  pacing : pacing;
}

let make ?(batch = batch ()) ~send pacing =
  { send; out = Tbl.create (); queue = [||]; paced = 0; exempt = 0; dirty = false; batch; pacing }

let slot t prefix = Tbl.slot t.out (Net.Ipv4.prefix_to_packed prefix)

let is_throttled t =
  match t.pacing with
  | Paced { timer = Some timer; _ } -> Engine.Timer.is_armed timer
  | Paced { timer = None; _ } | Unpaced -> false

(* Send the queued slots carrying [bits] as one UPDATE and clear those
   bits; a sent withdrawal frees its slot.  The queue is in prefix order,
   so a backward walk conses both lists in order; the slots it keeps
   close up at the front, still in order. *)
let emit t bits =
  let q = t.queue and n = t.paced + t.exempt in
  let announced = ref [] and withdrawn = ref [] and kept = ref n in
  for k = n - 1 downto 0 do
    let p = q.(k) in
    let i = slot t p in
    let tag = Tbl.tag t.out i in
    if tag land bits = 0 then begin
      decr kept;
      q.(!kept) <- p
    end
    else if tag land advertised_bit <> 0 then begin
      announced := (p, Tbl.value t.out i) :: !announced;
      Tbl.set_tag t.out i advertised_bit
    end
    else begin
      withdrawn := p :: !withdrawn;
      Tbl.remove_slot t.out i
    end
  done;
  Array.blit q !kept q 0 (n - !kept);
  if bits land paced_bit <> 0 then t.paced <- 0;
  if bits land exempt_bit <> 0 then t.exempt <- 0;
  t.send { Message.announced = !announced; withdrawn = !withdrawn }

(* The queue array outlives a flush only while the timer runs, so a busy
   peer reuses it and an idle table holds none. *)
let release t = if t.paced + t.exempt = 0 && not (is_throttled t) then t.queue <- [||]

(* A flush that carries paced changes counts, and arms the timer after
   it.  Timer expiry sends the paced changes as one UPDATE and re-arms;
   with nothing paced the timer stays idle.  Exempt changes wait for
   their own end-of-event flush. *)
let rec emit_paced t bits =
  match t.pacing with
  | Paced ({ tm; config; rng; _ } as p) ->
    Engine.Metrics.Counter.inc tm.flushes_c;
    emit t bits;
    let timer =
      match p.timer with
      | Some timer -> timer
      | None ->
        let timer =
          Engine.Timer.create ~category:"bgp.mrai" p.sim ~callback:(fun () -> expire t)
        in
        p.timer <- Some timer;
        timer
    in
    Engine.Timer.start timer (Config.jittered_mrai config rng)
  | Unpaced -> emit t bits

and expire t = if t.paced > 0 then emit_paced t paced_bit else release t

(* End-of-event flush: everything queued within the current scheduler
   event leaves as one packed UPDATE.  While the MRAI timer runs only the
   exempt changes go out (the paced ones stay for timer expiry);
   otherwise both share the message, and the timer arms only when paced
   changes were flushed — an exempt-only message never starts an MRAI
   interval. *)
let flush_event t =
  t.dirty <- false;
  if is_throttled t then begin
    if t.exempt > 0 then emit t exempt_bit
  end
  else if t.paced > 0 then emit_paced t queued_bits
  else if t.exempt > 0 then emit t exempt_bit;
  release t

(* Outside a batch scope the flush degenerates to per-change sends. *)
let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    if t.batch.depth > 0 then t.batch.any_dirty <- true else flush_event t
  end

let is_dirty t = t.dirty

let create ?batch sim ~rng ~config ~send =
  let tm = Engine.Metrics.get_shared (Engine.Sim.metrics sim) telemetry in
  make ?batch ~send (Paced { sim; rng; config; tm; timer = None })

let unpaced ?batch ~send () = make ?batch ~send Unpaced

let pending_count t = t.paced

(* The position of the first queued prefix in [lo, hi) at or above
   packed [key], given that [hi] is. *)
let rec search q key lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Net.Ipv4.prefix_to_packed q.(mid) < key then search q key (mid + 1) hi
    else search q key lo mid

(* Insert [prefix] into the queue, keeping prefix order.  Changes mostly
   arrive in prefix order (an UPDATE's prefixes, a Loc-RIB walk), so the
   common case appends. *)
let push t prefix =
  let n = t.paced + t.exempt in
  if n = Array.length t.queue then begin
    let q = Array.make (max 4 (2 * n)) prefix in
    Array.blit t.queue 0 q 0 n;
    t.queue <- q
  end;
  let q = t.queue and key = Net.Ipv4.prefix_to_packed prefix in
  let i =
    if n = 0 || Net.Ipv4.prefix_to_packed q.(n - 1) < key then n else search q key 0 (n - 1)
  in
  Array.blit q i q (i + 1) (n - i);
  q.(i) <- prefix

(* Queue slot [i] under [bit] (dropping its other queued bit), with
   [advertised] as its advertised bit. *)
let enqueue t i prefix ~advertised bit =
  let tag = Tbl.tag t.out i in
  if tag land paced_bit <> 0 then t.paced <- t.paced - 1
  else if tag land exempt_bit <> 0 then t.exempt <- t.exempt - 1
  else push t prefix;
  if bit = paced_bit then t.paced <- t.paced + 1 else t.exempt <- t.exempt + 1;
  Tbl.set_tag t.out i (advertised lor bit)

(* A paced change counts as deferred while the timer runs (timer expiry
   sends it); otherwise it marks the table dirty. *)
let paced_change t =
  match t.pacing with
  | Paced { timer = Some timer; tm; _ } when Engine.Timer.is_armed timer ->
    Engine.Metrics.Counter.inc tm.deferrals_c
  | Paced _ | Unpaced -> mark_dirty t

let announce t prefix attrs =
  let i = slot t prefix in
  if
    not
      (i >= 0
      && Tbl.tag t.out i land advertised_bit <> 0
      && Attrs.wire_equal (Tbl.value t.out i) attrs)
  then begin
    let i =
      if i < 0 then Tbl.add t.out (Net.Ipv4.prefix_to_packed prefix) attrs
      else begin
        Tbl.set_value t.out i attrs;
        i
      end
    in
    match t.pacing with
    | Paced _ ->
      enqueue t i prefix ~advertised:advertised_bit paced_bit;
      paced_change t
    | Unpaced ->
      enqueue t i prefix ~advertised:advertised_bit exempt_bit;
      mark_dirty t
  end

let withdraw t prefix =
  let i = slot t prefix in
  if i >= 0 && Tbl.tag t.out i land advertised_bit <> 0 then
    match t.pacing with
    | Paced { config; _ } when config.Config.mrai_on_withdrawals ->
      enqueue t i prefix ~advertised:0 paced_bit;
      paced_change t
    | Paced _ | Unpaced ->
      (* Exempt: cancels any queued announcement and leaves at end of
         event, the timer state untouched. *)
      enqueue t i prefix ~advertised:0 exempt_bit;
      mark_dirty t

let advertised t prefix =
  match slot t prefix with
  | -1 -> None
  | i -> if Tbl.tag t.out i land advertised_bit <> 0 then Some (Tbl.value t.out i) else None

let advertised_entries t =
  Array.fold_right
    (fun i acc ->
      if Tbl.tag t.out i land advertised_bit <> 0 then
        (Net.Ipv4.prefix_of_packed (Tbl.packed_at t.out i), Tbl.value t.out i) :: acc
      else acc)
    (Tbl.sorted_slots t.out) []

(* Session reset: empty the Adj-RIB-Out, drop queued changes, stop the
   timer. *)
let reset t =
  Tbl.clear t.out;
  t.queue <- [||];
  t.paced <- 0;
  t.exempt <- 0;
  t.dirty <- false;
  match t.pacing with
  | Paced { timer = Some timer; _ } -> Engine.Timer.cancel timer
  | Paced { timer = None; _ } | Unpaced -> ()
