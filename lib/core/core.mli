(** Hybridsdn — public facade of the hybrid BGP-SDN emulation framework.

    Re-exports every layer under one roof.  A quickstart describes a run
    ({!Experiments.t}) and runs it:

    {[
      let d = Core.Experiments.(describe ~members:(Last 8) ~seed:1 (Graph (Core.Topo.clique 16))) in
      let r = Core.Experiments.run d in
      Fmt.pr "converged in %.1fs@." r.Core.Experiments.seconds
    ]} *)

val version : string

(** {1 Engine: deterministic discrete-event simulation} *)

module Time = Engine.Time
module Rng = Engine.Rng
module Stats = Engine.Stats
module Sim = Engine.Sim

(** {1 Network substrate} *)

module Asn = Net.Asn
module Ipv4 = Net.Ipv4
module Graph = Net.Graph
module Packet = Net.Packet

(** {1 Topologies} *)

module Spec = Topology.Spec
module Caida = Topology.Caida
module Iplane = Topology.Iplane
module Random_models = Topology.Random_models

(** Artificial topology shorthands (clique, star, ring, ...). *)
module Topo : sig
  include module type of Topology.Artificial
end

(** {1 BGP} *)

module Bgp_attrs = Bgp.Attrs
module Bgp_route = Bgp.Route
module Bgp_policy = Bgp.Policy
module Bgp_decision = Bgp.Decision
module Bgp_config = Bgp.Config
module Bgp_router = Bgp.Router
module Bgp_collector = Bgp.Collector

(** {1 SDN} *)

module Flow = Sdn.Flow
module Flow_table = Sdn.Flow_table
module Openflow = Sdn.Openflow
module Switch = Sdn.Switch

(** {1 The IDR controller cluster} *)

module As_graph = Cluster_ctl.As_graph
module Controller = Cluster_ctl.Controller
module Speaker = Cluster_ctl.Speaker

(** {1 Experiment framework} *)

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
