(* Hybridsdn — the public facade of the hybrid BGP-SDN emulation
   framework.

   The layered libraries remain directly usable ([Engine], [Net],
   [Topology], [Bgp], [Sdn], [Cluster_ctl], [Framework]); this module
   re-exports them under one roof.  A quickstart describes a run and runs
   it with [Experiments] (see core.mli). *)

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
