(* Framework-level experiment configuration: BGP timing, controller
   behaviour, failure detection, tracing and collector retention. *)

type t = {
  bgp : Bgp.Config.t;
  controller : Cluster_ctl.Controller.config;
  speaker_mrai : Bgp.Config.t option;
      (* pace the cluster speaker's announcements like a normal BGP
         implementation (None = ExaBGP-style immediate emission) *)
  speaker_liveness : Bgp.Config.keepalive option;
      (* KEEPALIVE/hold timers on the cluster speaker's external sessions
         (None = sessions never hold-expire, the pre-liveness behaviour) *)
  switch_liveness : Sdn.Switch.liveness option;
      (* member switches heartbeat the controller and degrade into a
         legacy-BGP fallback route when the control plane goes silent *)
  flow_hard_timeout : Engine.Time.span option;
      (* stamp installed flow rules so stale forwarding state decays at
         the switch when the controller stops refreshing it *)
  causal : Engine.Causal.mode;
      (* causal span tracing: the default bounded ring is the always-on
         flight recorder chaos dumps on invariant violations; [Full]
         retains every span for export/critical-path analysis *)
  collector_retention : Bgp.Collector.retention;
      (* [Counts_only] drops the collector's event log, keeping only the
         update count — required at Internet scale where the log would
         dominate the heap *)
}

let default =
  {
    bgp = Bgp.Config.default;
    controller = Cluster_ctl.Controller.default_config;
    speaker_mrai = None;
    speaker_liveness = None;
    switch_liveness = None;
    flow_hard_timeout = None;
    causal = Engine.Causal.Ring 4096;
    collector_retention = Bgp.Collector.Full;
  }

let with_mrai t span = { t with bgp = Bgp.Config.with_mrai t.bgp span }

let with_recompute_delay t span =
  { t with controller = { Cluster_ctl.Controller.recompute_delay = span } }

(* A configuration scaled for fast unit tests: second-scale MRAI. *)
let fast_test =
  {
    default with
    bgp =
      {
        Bgp.Config.default with
        Bgp.Config.mrai = Engine.Time.sec 2;
        proc_delay_min = Engine.Time.ms 1;
        proc_delay_max = Engine.Time.ms 5;
        session_down_detect = Engine.Time.ms 100;
        session_open_delay = Engine.Time.ms 200;
      };
    controller = { Cluster_ctl.Controller.recompute_delay = Engine.Time.ms 200 };
  }

(* Every failure-detection mechanism armed with second-scale timers:
   silent failures hold-expire within ~6 s, switches degrade to legacy
   fallback after ~3 s of control silence, and stale flow rules decay
   within 45 s.  The base is [fast_test] so whole failure/recovery
   scenarios fit in under a simulated minute. *)
let failure_test =
  let liveness =
    { Bgp.Config.interval = Engine.Time.sec 2; hold_time = Engine.Time.sec 6 }
  in
  {
    fast_test with
    bgp = Bgp.Config.with_reconnect (Bgp.Config.with_keepalives ~keepalive:liveness fast_test.bgp);
    speaker_liveness = Some liveness;
    switch_liveness =
      Some { Sdn.Switch.echo_interval = Engine.Time.sec 1; fail_after = Engine.Time.sec 3 };
    flow_hard_timeout = Some (Engine.Time.sec 45);
  }
