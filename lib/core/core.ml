(* Hybridsdn — the public facade of the hybrid BGP-SDN emulation
   framework.

   The layered libraries remain directly usable ([Engine], [Net],
   [Topology], [Bgp], [Sdn], [Cluster_ctl], [Framework]); this module
   re-exports them under one roof and offers the handful of entry points
   a quickstart needs.

   {[
     let spec = Core.Topo.clique 16 |> Core.sdn_tail ~k:8 in
     let exp = Core.run spec in
     let origin = Core.Topo.asn 0 in
     let m = Core.measure_withdrawal exp origin in
     Fmt.pr "converged in %.1fs@." (Core.seconds m)
   ]} *)

let version = "1.0.0"

(* Re-exports: foundational layers. *)

module Time = Engine.Time
module Rng = Engine.Rng
module Stats = Engine.Stats
module Sim = Engine.Sim

module Asn = Net.Asn
module Ipv4 = Net.Ipv4
module Graph = Net.Graph
module Packet = Net.Packet

module Spec = Topology.Spec
module Caida = Topology.Caida
module Iplane = Topology.Iplane
module Random_models = Topology.Random_models

module Bgp_attrs = Bgp.Attrs
module Bgp_route = Bgp.Route
module Bgp_policy = Bgp.Policy
module Bgp_decision = Bgp.Decision
module Bgp_config = Bgp.Config
module Bgp_router = Bgp.Router
module Bgp_collector = Bgp.Collector

module Flow = Sdn.Flow
module Flow_table = Sdn.Flow_table
module Openflow = Sdn.Openflow
module Switch = Sdn.Switch

module As_graph = Cluster_ctl.As_graph
module Controller = Cluster_ctl.Controller
module Speaker = Cluster_ctl.Speaker

module Config = Framework.Config
module Network = Framework.Network
module Experiment = Framework.Experiment
module Experiments = Framework.Experiments
module Convergence = Framework.Convergence
module Monitor = Framework.Monitor
module Scenario = Framework.Scenario
module Visualize = Framework.Visualize
module Addressing = Framework.Addressing
module Looking_glass = Framework.Looking_glass

(* Topology shorthands. *)
module Topo = struct
  include Topology.Artificial
end

(* Mark the last [k] ASes of a spec as SDN-controlled. *)
let sdn_tail ~k spec =
  let asns = Spec.asns spec in
  let n = List.length asns in
  if k > n then invalid_arg "Core.sdn_tail: k exceeds topology size";
  let tail = List.filteri (fun i _ -> i >= n - k) asns in
  Spec.with_sdn spec tail

(* Build and bootstrap an experiment. *)
let run ?config ?seed spec = Experiment.create ?config ?seed spec

(* Announce the AS's default prefix, settle, withdraw it, and measure the
   withdrawal convergence — the paper's headline experiment on any
   topology. *)
let measure_withdrawal exp origin =
  let prefix = Experiment.default_prefix exp origin in
  ignore (Experiment.measure exp ~prefix (fun () -> ignore (Experiment.announce exp origin)));
  Experiment.measure exp ~prefix (fun () -> ignore (Experiment.withdraw exp origin))

let measure_announcement exp origin =
  let prefix = Experiment.default_prefix exp origin in
  Experiment.measure exp ~prefix (fun () -> ignore (Experiment.announce exp origin))

let seconds = Experiment.convergence_seconds
