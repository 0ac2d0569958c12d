(* One peer's outbound side: the changes queued for it and not yet sent,
   paced by the MinRouteAdvertisementInterval.

   Semantics (matching Quagga's behaviour): the first advertisement after
   an idle period goes out immediately and arms the timer; while the timer
   runs, changes coalesce (later changes for the same prefix replace
   earlier ones — only the latest state is ever sent); on expiry the
   queued changes are flushed as one UPDATE and the timer re-arms only if
   something was flushed.  Explicit withdrawals bypass the timer unless
   [mrai_on_withdrawals] is set.

   Storage: the queued changes only, in prefix order, in three parallel
   arrays.  [keys] holds each change's packed prefix with three bits
   above it — announcement, queued paced, queued exempt (never both) —
   [prefixes] the values the UPDATE carries and [values] an
   announcement's attrs.  A withdrawal's cell and the cells past the
   queue hold a stale value or [Attrs.vacant] until the arrays are
   released (overwriting sent cells with [Attrs.vacant] raised the peak
   heap of a 10/400/4,590-AS, 100-prefix load from 38.7M to 40.2M words
   and lowered nothing).  A flush touches only what it sends and drops
   it, so a table whose changes have all left holds nothing.  What the
   peer holds is its owner's to derive (the router from its Loc-RIB,
   the speaker from the decisions it last synced), so the owner queues a
   change only where the peer's view differs and the table compares
   nothing. *)

let announce_bit = 1

let paced_bit = 2

let exempt_bit = 4

let queued_bits = paced_bit lor exempt_bit

let key_bits = 38 (* a packed prefix: 32 address bits above 6 length bits *)

let key_mask = (1 lsl key_bits) - 1

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
  (* The first [paced + exempt] cells are the queued changes, ascending
     by prefix; [||] when none. *)
  mutable keys : int array;
  mutable prefixes : Net.Ipv4.prefix array;
  mutable values : Attrs.t array;
  mutable paced : int; (* changes with [paced_bit] *)
  mutable exempt : int; (* changes with [exempt_bit] *)
  (* Set once per event on the first queued change; cleared by
     [flush_event].  Inside its owner's batch scope the change only marks
     the batch, so one scheduler event emits one packed UPDATE per peer. *)
  mutable dirty : bool;
  batch : batch;
  pacing : pacing;
}

let make ?(batch = batch ()) ~send pacing =
  {
    send;
    keys = [||];
    prefixes = [||];
    values = [||];
    paced = 0;
    exempt = 0;
    dirty = false;
    batch;
    pacing;
  }

let bits t i = t.keys.(i) lsr key_bits

let is_throttled t =
  match t.pacing with
  | Paced { timer = Some timer; _ } -> Engine.Timer.is_armed timer
  | Paced { timer = None; _ } | Unpaced -> false

(* Send the queued changes carrying [bits] as one UPDATE and drop them.
   The queue is in prefix order, so a backward walk conses both lists in
   order; the changes it keeps close up at the front, still in order. *)
let emit t bits =
  let keys = t.keys and prefixes = t.prefixes and values = t.values in
  let n = t.paced + t.exempt in
  let announced = ref [] and withdrawn = ref [] and kept = ref n in
  for k = n - 1 downto 0 do
    let key = keys.(k) and p = prefixes.(k) in
    let b = key lsr key_bits in
    if b land bits = 0 then begin
      decr kept;
      keys.(!kept) <- key;
      prefixes.(!kept) <- p;
      values.(!kept) <- values.(k)
    end
    else if b land announce_bit <> 0 then announced := (p, values.(k)) :: !announced
    else withdrawn := p :: !withdrawn
  done;
  let left = n - !kept in
  Array.blit keys !kept keys 0 left;
  Array.blit prefixes !kept prefixes 0 left;
  Array.blit values !kept values 0 left;
  if bits land paced_bit <> 0 then t.paced <- 0;
  if bits land exempt_bit <> 0 then t.exempt <- 0;
  t.send { Message.announced = !announced; withdrawn = !withdrawn }

(* The arrays outlive a flush only while the timer runs, so a busy peer
   reuses them and an idle table holds none. *)
let release t =
  if t.paced + t.exempt = 0 && not (is_throttled t) then begin
    t.keys <- [||];
    t.prefixes <- [||];
    t.values <- [||]
  end

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

let queued_count t = t.paced + t.exempt

(* The first position in [lo, hi) whose prefix is at or above packed
   [key], given that [hi]'s is. *)
let rec search keys key lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) / 2 in
    if keys.(mid) land key_mask < key then search keys key (mid + 1) hi
    else search keys key lo mid

(* Where the change for packed [key] is, or would go.  Changes mostly
   arrive in prefix order (an UPDATE's prefixes, a Loc-RIB walk), so the
   common case appends. *)
let position t key =
  let n = t.paced + t.exempt in
  if n = 0 || t.keys.(n - 1) land key_mask < key then n else search t.keys key 0 (n - 1)

let holds t i key = i < t.paced + t.exempt && t.keys.(i) land key_mask = key

let view t prefix ~sent =
  let key = Net.Ipv4.prefix_to_packed prefix in
  let i = position t key in
  if not (holds t i key) then sent
  else if bits t i land announce_bit <> 0 then Some t.values.(i)
  else None

(* Open position [i] of the queue for [prefix]. *)
let insert t i prefix =
  let n = t.paced + t.exempt in
  if n = Array.length t.keys then begin
    let cap = max 4 (2 * n) in
    let keys = Array.make cap 0
    and prefixes = Array.make cap prefix
    and values = Array.make cap Attrs.vacant in
    Array.blit t.keys 0 keys 0 n;
    Array.blit t.prefixes 0 prefixes 0 n;
    Array.blit t.values 0 values 0 n;
    t.keys <- keys;
    t.prefixes <- prefixes;
    t.values <- values
  end;
  Array.blit t.keys i t.keys (i + 1) (n - i);
  Array.blit t.prefixes i t.prefixes (i + 1) (n - i);
  Array.blit t.values i t.values (i + 1) (n - i);
  t.prefixes.(i) <- prefix

(* Queue a change with [change] bits at position [i], replacing the
   change queued there when [found]. *)
let enqueue t i ~found key prefix change =
  if not found then insert t i prefix
  else if bits t i land paced_bit <> 0 then t.paced <- t.paced - 1
  else t.exempt <- t.exempt - 1;
  if change land paced_bit <> 0 then t.paced <- t.paced + 1 else t.exempt <- t.exempt + 1;
  t.keys.(i) <- key lor (change lsl key_bits)

(* A paced change counts as deferred while the timer runs (timer expiry
   sends it); otherwise it marks the table dirty. *)
let paced_change t =
  match t.pacing with
  | Paced { timer = Some timer; tm; _ } when Engine.Timer.is_armed timer ->
    Engine.Metrics.Counter.inc tm.deferrals_c
  | Paced _ | Unpaced -> mark_dirty t

let announce t prefix attrs =
  let key = Net.Ipv4.prefix_to_packed prefix in
  let i = position t key in
  let queued = match t.pacing with Paced _ -> paced_bit | Unpaced -> exempt_bit in
  enqueue t i ~found:(holds t i key) key prefix (announce_bit lor queued);
  t.values.(i) <- attrs;
  match t.pacing with Paced _ -> paced_change t | Unpaced -> mark_dirty t

let withdraw t prefix =
  let key = Net.Ipv4.prefix_to_packed prefix in
  let i = position t key in
  let found = holds t i key in
  match t.pacing with
  | Paced { config; _ } when config.Config.mrai_on_withdrawals ->
    enqueue t i ~found key prefix paced_bit;
    paced_change t
  | Paced _ | Unpaced ->
    (* Exempt: cancels any queued announcement and leaves at end of
       event, the timer state untouched. *)
    enqueue t i ~found key prefix exempt_bit;
    mark_dirty t

(* Session reset: drop queued changes, stop the timer. *)
let reset t =
  t.keys <- [||];
  t.prefixes <- [||];
  t.values <- [||];
  t.paced <- 0;
  t.exempt <- 0;
  t.dirty <- false;
  match t.pacing with
  | Paced { timer = Some timer; _ } -> Engine.Timer.cancel timer
  | Paced { timer = None; _ } | Unpaced -> ()
