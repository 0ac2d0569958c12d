(* The per-peer BGP session, shared by both eBGP endpoints: the legacy
   border router (Bgp.Router, Quagga's role) and the cluster speaker
   (Cluster_ctl.Speaker, ExaBGP's role).

   The emulation keeps a deliberately collapsed version of the RFC 4271
   FSM: the TCP-level states (Connect/Active/OpenSent/OpenConfirm) fold
   into a single [Connect] state because the fabric either delivers the
   OPEN or it does not — there is no half-open TCP handshake to model.
   The observable states are

     Idle ──open──▶ Connect ──OPEN rcvd──▶ Established
       ▲               │  ▲                      │
       └───────────────┘  └──backoff retry       │
       ◀──────── hold expiry / NOTIFICATION ─────┘

   A session owns its flags, the peer's proposed hold and the KEEPALIVE
   and hold timers, and performs the transitions both endpoints share.
   What differs by role (RIB flushes, the controller callback, reconnect
   retries) stays with the caller, which learns of each transition from
   a return value or the [on_expired] hook.  The deterministic backoff
   schedule for retrying a [Connect] that never completes lives here
   too; only the router uses it. *)

type state = Idle | Connect | Established

let to_string = function
  | Idle -> "idle"
  | Connect -> "connect"
  | Established -> "established"

(* Stable numeric encoding for the bgp_session_state gauge. *)
let to_int = function Idle -> 0 | Connect -> 1 | Established -> 2

type keepalive = { interval : Engine.Time.span; hold_time : Engine.Time.span }

(* What one endpoint shares across its sessions, including the two hooks
   every session calls with its own [key], so a session holds no closure
   of its own. *)
type endpoint = {
  node : Engine.Node.t;
  rng : Engine.Rng.t;
  category : string;
  liveness : keepalive option;
  our_hold : int;
  send : int -> Message.t -> bool;
  on_expired : int -> unit;
  mutable expirations : int;
}

(* The hold time (whole seconds) an endpoint proposes in its OPENs; 0 when
   keepalives are off — RFC 4271 lets either side disable liveness. *)
let endpoint node ~rng ~category ~send ~on_expired liveness =
  let our_hold =
    match liveness with
    | None -> 0
    | Some { hold_time; _ } -> max 1 (int_of_float (Engine.Time.to_sec_f hold_time))
  in
  { node; rng; category; liveness; our_hold; send; on_expired; expirations = 0 }

let hold_expirations ep = ep.expirations

(* The endpoint's expiry count as [bgp_hold_expirations_total{node}]: the
   owner's collector registers the series on its first snapshot. *)
let expirations_counter ep =
  Engine.Metrics.counter
    (Engine.Sim.metrics (Engine.Node.sim ep.node))
    ~help:"sessions torn down by hold-timer expiry"
    ~labels:[ ("node", Engine.Node.name ep.node) ]
    "bgp_hold_expirations_total"

type t = {
  ep : endpoint;
  asn : Net.Asn.t;
  router_id : Net.Ipv4.addr;
  key : int; (* the owner's name for this session in [ep.send] and [ep.on_expired] *)
  mutable established : bool;
  mutable open_sent : bool;
  mutable peer_hold : int; (* hold time (s) the peer proposed in its OPEN; 0 = none *)
  mutable keepalive : Engine.Timer.t option; (* periodic KEEPALIVE emission *)
  mutable hold : Engine.Timer.t option; (* liveness: reset by any inbound message *)
}

let create ep ~asn ~router_id ~key =
  { ep; asn; router_id; key; established = false; open_sent = false; peer_hold = 0;
    keepalive = None; hold = None }

let send s msg = s.ep.send s.key msg

let state s = if s.established then Established else if s.open_sent then Connect else Idle

let is_established s = s.established

let send_open s =
  ignore (send s (Message.Open { asn = s.asn; router_id = s.router_id; hold_time = s.ep.our_hold }))

let connect s =
  let was_idle = not s.open_sent in
  if was_idle then begin
    s.open_sent <- true;
    send_open s
  end;
  was_idle

(* RFC 4271 §4.2 negotiation: the session hold time is the smaller of the
   two proposals, and 0 on either side disables liveness entirely. *)
let negotiated_hold s =
  if s.ep.our_hold = 0 || s.peer_hold = 0 then None
  else Some (Engine.Time.sec (min s.ep.our_hold s.peer_hold))

let stop_liveness s =
  Option.iter Engine.Timer.cancel s.keepalive;
  Option.iter Engine.Timer.cancel s.hold

let hold_expired s () =
  s.ep.expirations <- s.ep.expirations + 1;
  ignore (send s (Message.Notification "hold timer expired"));
  s.ep.on_expired s.key

(* KEEPALIVE emission + hold-timer supervision.  Armed only when both
   sides proposed a non-zero hold time; the emission interval is jittered
   per cycle (Quagga jitters keepalives the same way it jitters MRAI) and
   clamped to a third of the negotiated hold so three losses are needed
   to kill a healthy session. *)
let start_liveness s =
  let ep = s.ep in
  match (ep.liveness, negotiated_hold s) with
  | None, _ | _, None -> ()
  | Some { interval; _ }, Some hold_time ->
    let interval =
      Engine.Time.min interval (Engine.Time.span_scale hold_time (1.0 /. 3.0))
    in
    let jittered () = Engine.Rng.jitter_span ep.rng interval ~lo:0.75 ~hi:1.0 in
    let keepalive =
      match s.keepalive with
      | Some timer -> timer
      | None ->
        let emit () =
          if s.established then begin
            ignore (send s Message.Keepalive);
            Option.iter (fun timer -> Engine.Timer.start timer (jittered ())) s.keepalive
          end
        in
        let timer = Engine.Node.timer ~category:ep.category ep.node ~callback:emit in
        s.keepalive <- Some timer;
        timer
    in
    let hold =
      match s.hold with
      | Some timer -> timer
      | None ->
        let timer =
          Engine.Node.timer ~category:ep.category ep.node ~callback:(hold_expired s)
        in
        s.hold <- Some timer;
        timer
    in
    Engine.Timer.start keepalive (jittered ());
    Engine.Timer.start hold hold_time

let receive_open s ~hold_time =
  s.peer_hold <- hold_time;
  ignore (connect s);
  let was_down = not s.established in
  if was_down then begin
    s.established <- true;
    start_liveness s
  end;
  was_down

(* Any inbound traffic proves the peer alive. *)
let touch s =
  if s.established then
    match s.hold with
    | None -> ()
    | Some hold -> (
      match negotiated_hold s with
      | Some hold_time -> Engine.Timer.start hold hold_time
      | None -> ())

let teardown s =
  let was_open = state s <> Idle in
  if was_open then begin
    s.established <- false;
    s.open_sent <- false;
    stop_liveness s
  end;
  was_open

(* Owned timers die with the node, so only the state is reset. *)
let crash s =
  s.established <- false;
  s.open_sent <- false;
  s.peer_hold <- 0

(* Exponential-backoff schedule for session reconnects (Quagga's
   connect-retry with the usual doubling). *)
type backoff = {
  retry_initial : Engine.Time.span;
  retry_multiplier : float;
  retry_max : Engine.Time.span;
  max_attempts : int;  (** give up (stay Idle) after this many retries *)
}

let default_backoff =
  {
    retry_initial = Engine.Time.sec 1;
    retry_multiplier = 2.0;
    retry_max = Engine.Time.sec 32;
    max_attempts = 6;
  }

(* Delay before retry [attempt] (0-based): initial * multiplier^attempt,
   capped at [retry_max], multiplicatively jittered in [0.75, 1.0] from
   the supplied stream — deterministic for a fixed seed. *)
let delay b rng ~attempt =
  let scaled =
    Engine.Time.span_scale b.retry_initial (b.retry_multiplier ** float_of_int attempt)
  in
  let base = Engine.Time.min scaled b.retry_max in
  Engine.Rng.jitter_span rng base ~lo:0.75 ~hi:1.0
