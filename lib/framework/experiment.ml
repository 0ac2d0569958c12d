(* The experiment lifecycle API — the high-level commands the framework
   gives experimenters (the paper's Mininet-BGP command extensions):
   build a topology, bring BGP up, announce/withdraw prefixes, fail and
   recover links, wait for convergence, measure. *)

type t = {
  network : Network.t;
  watcher : Convergence.t;
}

let network t = t.network

let watcher t = t.watcher

let sim t = Network.sim t.network

let now t = Network.now t.network

let metrics t = Engine.Sim.metrics (sim t)

(* The whole-stack registry frozen at the current simulated instant —
   what experiment results carry as their final telemetry. *)
let final_metrics t = Engine.Metrics.snapshot (metrics t) ~at:(now t)

(* Build the emulation and bring all BGP sessions up; runs until the
   bootstrap has fully converged.  No prefix is originated yet. *)
let boot network =
  let watcher = Convergence.attach network in
  Network.start network;
  ignore (Network.settle network);
  { network; watcher }

let create ?(config = Config.default) ?(seed = 42) spec =
  boot (Network.create ~config ~seed spec)

let default_prefix t asn = (Network.plan t.network).Addressing.origin_prefix asn

let announce ?prefix t asn =
  let prefix = match prefix with Some p -> p | None -> default_prefix t asn in
  Network.originate t.network asn prefix;
  prefix

let withdraw ?prefix t asn =
  let prefix = match prefix with Some p -> p | None -> default_prefix t asn in
  Network.withdraw t.network asn prefix;
  prefix

let fail_link t a b = Network.fail_link t.network a b

let recover_link t a b = Network.recover_link t.network a b

let settle ?max_events t = Network.settle ?max_events t.network

(* Perform [action] and run to quiescence, measuring convergence of
   [prefix] from the moment of the action. *)
let measure ?max_events ?bounded t ~prefix action =
  let event_time = now t in
  let changes_before = Convergence.control_changes t.watcher prefix in
  action ();
  Convergence.measure ?max_events ?bounded ~changes_before t.watcher ~prefix ~event_time

(* Convergence time in seconds, NaN when nothing changed. *)
let convergence_seconds (m : Convergence.measurement) =
  match m.Convergence.convergence with
  | Some span -> Engine.Time.to_sec_f span
  | None -> nan

let reachable t ~src ~dst = Monitor.reachable t.network ~src ~dst

let walk t ~src ~dst =
  Monitor.walk t.network ~src ~dst_addr:((Network.plan t.network).Addressing.host_addr dst)
