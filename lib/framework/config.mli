(** Framework-level experiment configuration. *)

type t = {
  bgp : Bgp.Config.t;
  controller : Cluster_ctl.Controller.config;
  speaker_mrai : Bgp.Config.t option;
      (** pace the cluster speaker's announcements like a conventional BGP
          implementation ([None] = ExaBGP-style immediate emission) *)
  speaker_liveness : Bgp.Config.keepalive option;
      (** KEEPALIVE/hold timers on the cluster speaker's external sessions
          ([None] = sessions never hold-expire) *)
  switch_liveness : Sdn.Switch.liveness option;
      (** member switches heartbeat the controller and degrade into a
          legacy-BGP fallback route when the control plane goes silent *)
  flow_hard_timeout : Engine.Time.span option;
      (** decay timeout stamped on installed flow rules *)
  causal : Engine.Causal.mode;
      (** causal span tracing mode; the default [Ring 4096] keeps a cheap
          always-on flight recorder, [Full] retains every span for
          critical-path analysis and Chrome/JSONL export *)
  collector_retention : Bgp.Collector.retention;
      (** [Counts_only] drops the collector's event log, keeping only
          the update count — constant memory for Internet-scale runs *)
}

val default : t
(** The paper's Quagga-like deployment: 30 s jittered MRAI (withdrawals
    included), 2 s controller recomputation delay. *)

val fast_test : t
(** Second-scale timers for unit tests. *)

val failure_test : t
(** [fast_test] with the whole failure-detection stack armed: router and
    speaker KEEPALIVE 2 s / hold 6 s, OPEN-retry backoff, switch echo 1 s
    with fallback after 3 s of control silence, 45 s flow hard timeout.
    Scenarios with this config never drain the event queue — detect
    convergence with quiet-period waiting. *)

val with_mrai : t -> Engine.Time.span -> t

val with_recompute_delay : t -> Engine.Time.span -> t
