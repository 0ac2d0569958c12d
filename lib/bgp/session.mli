(** The per-peer BGP session shared by both endpoints of an eBGP peering
    (the legacy border router and the cluster speaker): the collapsed
    RFC 4271 FSM, OPEN exchange with hold-time negotiation, KEEPALIVE and
    hold-timer liveness, and the deterministic exponential-backoff
    reconnect schedule. *)

type state = Idle | Connect | Established

val to_string : state -> string

val to_int : state -> int
(** Stable encoding for metrics gauges: Idle = 0, Connect = 1,
    Established = 2. *)

type keepalive = { interval : Engine.Time.span; hold_time : Engine.Time.span }
(** KEEPALIVE emission interval and proposed hold time (RFC 4271 §4.4). *)

type endpoint
(** What one endpoint shares across its sessions. *)

val endpoint :
  Engine.Node.t ->
  rng:Engine.Rng.t ->
  category:string ->
  send:(int -> Message.t -> bool) ->
  on_expired:(int -> unit) ->
  keepalive option ->
  endpoint
(** Liveness timers are owned by the node and scheduled under [category],
    keepalive jitter draws from [rng], and [None] turns liveness off
    (OPENs propose hold 0).  A session writes with [send key] and reports
    its hold expiry to [on_expired key], where [key] is the owner's name
    for it (see {!create}). *)

val hold_expirations : endpoint -> int
(** Sessions of this endpoint torn down by hold-timer expiry. *)

val expirations_counter : endpoint -> Engine.Metrics.Counter.t
(** The registry series that exports {!hold_expirations}:
    [bgp_hold_expirations_total{node=<node name>}].  The owner registers
    it from a collector and brings it up to date there. *)

type t

val create : endpoint -> asn:Net.Asn.t -> router_id:Net.Ipv4.addr -> key:int -> t
(** An [Idle] session presenting [asn]/[router_id] in its OPENs.  On hold
    expiry it counts the expiry, sends [NOTIFICATION "hold timer
    expired"], then calls the endpoint's [on_expired key] to tear down
    the owner's way. *)

val state : t -> state

val is_established : t -> bool

val connect : t -> bool
(** Send an OPEN unless one is already out ([Idle] to [Connect]); [true]
    when it sent one. *)

val send_open : t -> unit
(** Re-send the OPEN (a reconnect retry); the state does not change. *)

val receive_open : t -> hold_time:int -> bool
(** Record the peer's proposed hold, answer with our OPEN if none is out,
    and establish, arming liveness when both sides proposed a non-zero
    hold (RFC 4271: the smaller wins).  [true] when newly established. *)

val touch : t -> unit
(** Inbound traffic: restart the hold timer of an established session.
    Allocates nothing when liveness is off. *)

val teardown : t -> bool
(** Back to [Idle], stopping liveness; [true] unless already [Idle]. *)

val crash : t -> unit
(** Forget all session state (the node crashed; its timers died with it). *)

type backoff = {
  retry_initial : Engine.Time.span;
  retry_multiplier : float;
  retry_max : Engine.Time.span;
  max_attempts : int;
}

val default_backoff : backoff
(** 1 s initial, doubling, capped at 32 s, at most 6 retries. *)

val delay : backoff -> Engine.Rng.t -> attempt:int -> Engine.Time.span
(** Delay before retry [attempt] (0-based): [retry_initial *
    retry_multiplier^attempt] capped at [retry_max], jittered
    multiplicatively in [0.75, 1.0] from [rng]. *)
