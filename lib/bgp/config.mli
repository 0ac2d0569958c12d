(** BGP timing configuration (Quagga-like defaults). *)

type keepalive = Session.keepalive = {
  interval : Engine.Time.span;
  hold_time : Engine.Time.span;
}

type t = {
  mrai : Engine.Time.span;  (** base eBGP MinRouteAdvertisementInterval *)
  mrai_jitter_lo : float;
  mrai_jitter_hi : float;
  mrai_on_withdrawals : bool;
      (** apply MRAI to explicit withdrawals too (RFC 4271 exempts them) *)
  proc_delay_min : Engine.Time.span;
  proc_delay_max : Engine.Time.span;
      (** bounds of the processing delay, drawn once per inbox batch *)
  session_down_detect : Engine.Time.span;
  session_open_delay : Engine.Time.span;
  keepalives : keepalive option;
      (** KEEPALIVE/hold-timer liveness; off by default — with keepalives
          on, detect convergence via quiet periods, not queue drain. *)
  reconnect : Session.backoff option;
      (** exponential-backoff retry of unanswered OPENs; off by default *)
}

val with_keepalives : ?keepalive:keepalive -> t -> t

val with_reconnect : ?backoff:Session.backoff -> t -> t

val default : t
(** MRAI 30 s jittered [0.75,1.0] applied to withdrawals too (Quagga
    behaviour), processing 10–50 ms, detection 500 ms. *)

val with_mrai : t -> Engine.Time.span -> t

val no_jitter : t -> t

val jittered_mrai : t -> Engine.Rng.t -> Engine.Time.span

val processing_delay : t -> Engine.Rng.t -> Engine.Time.span
(** One draw from [proc_delay_min, proc_delay_max]: how long a router's
    inbox batch waits, from its first UPDATE, to be processed. *)
