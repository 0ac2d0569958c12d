(* BGP timing configuration.

   Defaults mirror the Quagga setup the paper's framework drives: eBGP
   MRAI of 30 s with multiplicative jitter drawn from [0.75, 1.0] (Quagga
   jitters its advertisement-interval the same way), a processing delay in
   the tens of milliseconds per batch of received UPDATEs (a router's
   inbox), and fast session-down detection
   (directly connected eBGP notices interface-down immediately; we allow a
   small detection delay). *)

type keepalive = Session.keepalive = {
  interval : Engine.Time.span;
  hold_time : Engine.Time.span;
}

type t = {
  mrai : Engine.Time.span;
  mrai_jitter_lo : float;
  mrai_jitter_hi : float;
  mrai_on_withdrawals : bool;
      (* RFC 4271 exempts explicit withdrawals from MinRouteAdvertisementInterval *)
  proc_delay_min : Engine.Time.span;
  proc_delay_max : Engine.Time.span;
  session_down_detect : Engine.Time.span;
  session_open_delay : Engine.Time.span; (* re-open backoff after link recovery *)
  keepalives : keepalive option;
      (* KEEPALIVE/hold-timer liveness (RFC 4271 §4.4).  Off by default:
         periodic keepalives keep the event queue non-empty forever, so
         experiments that enable them must detect convergence with
         quiet-period waiting (Convergence.wait_quiet) instead of queue
         exhaustion.  Enable to detect silent failures (e.g. total loss
         on a link that never reports down). *)
  reconnect : Session.backoff option;
      (* Exponential-backoff retry of unanswered OPENs.  Off by default:
         a bounded retry schedule still extends queue drain, and most
         experiments rely on the link watcher to re-open sessions. *)
}

(* Quagga defaults: keepalive 60 s, hold 180 s. *)
let default_keepalive = { interval = Engine.Time.sec 60; hold_time = Engine.Time.sec 180 }

(* [mrai_on_withdrawals] defaults to true: Quagga (the paper's router
   software) paces withdrawals through the same per-peer advertisement
   timer as announcements — the "WRATE" behaviour that makes withdrawal
   convergence exhibit MRAI-spaced path-exploration rounds.  RFC 4271
   exempts explicit withdrawals; set false for RFC-style pacing (we
   benchmark both — ablation A4). *)
let default =
  {
    mrai = Engine.Time.sec 30;
    mrai_jitter_lo = 0.75;
    mrai_jitter_hi = 1.0;
    mrai_on_withdrawals = true;
    proc_delay_min = Engine.Time.ms 10;
    proc_delay_max = Engine.Time.ms 50;
    session_down_detect = Engine.Time.ms 500;
    session_open_delay = Engine.Time.sec 1;
    keepalives = None;
    reconnect = None;
  }

let with_keepalives ?(keepalive = default_keepalive) t = { t with keepalives = Some keepalive }

let with_reconnect ?(backoff = Session.default_backoff) t = { t with reconnect = Some backoff }

let with_mrai t span = { t with mrai = span }

let no_jitter t = { t with mrai_jitter_lo = 1.0; mrai_jitter_hi = 1.0 }

(* Draw one jittered MRAI interval. *)
let jittered_mrai t rng =
  if t.mrai_jitter_lo >= t.mrai_jitter_hi then Engine.Time.span_scale t.mrai t.mrai_jitter_lo
  else Engine.Rng.jitter_span rng t.mrai ~lo:t.mrai_jitter_lo ~hi:t.mrai_jitter_hi

(* Draw one processing delay: the time from the first UPDATE reaching a
   router's empty inbox to the batch's processing. *)
let processing_delay t rng =
  let lo = Engine.Time.to_us t.proc_delay_min in
  let hi = Engine.Time.to_us t.proc_delay_max in
  if hi <= lo then t.proc_delay_min
  else Engine.Time.us (Engine.Rng.int_range rng lo hi)
