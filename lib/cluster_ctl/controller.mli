(** The proof-of-concept IDR SDN controller: centralized per-prefix route
    selection on the AS topology graph, flow-rule compilation, BGP
    announcements through the cluster speaker, delayed recomputation. *)

type config = { recompute_delay : Engine.Time.span }

val default_config : config
(** 2-second delayed recomputation. *)

(** The controller's counts, each kept once: every metrics snapshot
    brings the registry's [controller_*_total] series up to date from
    these fields ([controller_dijkstra_runs_total] reads
    [prefixes_recomputed]: one shortest-path run per recomputed prefix). *)
type stats = {
  mutable updates_in : int;
  mutable recompute_batches : int;
  mutable prefixes_recomputed : int;
  mutable recompute_skipped : int;
      (** dirty prefixes whose inputs (RIB slice, originators, switch-graph
          version) were unchanged: the deterministic pipeline would have
          reproduced the previous outputs, so the run was elided *)
  mutable flow_mods : int;
  mutable announces : int;
  mutable withdraws : int;
  mutable decision_changes : int;
}

type t

val create :
  ?flow_hard_timeout:Engine.Time.span ->
  sim:Engine.Sim.t ->
  config:config ->
  members:Net.Asn.t list ->
  speaker:Speaker.t ->
  send_switch:(member:Net.Asn.t -> Sdn.Openflow.t -> bool) ->
  node_of_asn:(Net.Asn.t -> int option) ->
  asn_of_node:(int -> Net.Asn.t option) ->
  intra_links:(Net.Asn.t * Net.Asn.t) list ->
  unit ->
  t
(** Registers itself as the speaker's update/session handler; imports and
    exports use each speaker session's own policy.
    [flow_hard_timeout] stamps every pushed flow rule, so installed rules
    decay at the switch when the controller dies and stops refreshing
    them (the FLOW_REMOVED notification marks the prefix dirty so a live
    controller immediately reinstalls). *)

val node : t -> Engine.Node.t
(** The runtime node: a crash loses the RIB, decisions and installed-rule
    shadow but keeps originations (configuration) and the switch graph; a
    restart re-runs the pipeline for originated prefixes, and external
    routes return as the speaker's sessions resync. *)

val members : t -> Net.Asn.t list

val stats : t -> stats

val switch_graph : t -> Net.Graph.t

val decision : t -> member:Net.Asn.t -> Net.Ipv4.prefix -> As_graph.decision option

val decisions_for : t -> Net.Ipv4.prefix -> As_graph.decision Net.Asn.Map.t

val rib_routes : t -> Net.Ipv4.prefix -> As_graph.exit_route list

val known_prefixes : t -> Net.Ipv4.prefix list

val subscribe_decision_change :
  t -> (Net.Ipv4.prefix -> Net.Asn.t -> As_graph.decision option -> unit) -> unit

val handle_openflow : t -> Sdn.Openflow.t -> unit
(** Entry point for messages arriving at the controller node:
    PORT_STATUS, FLOW_REMOVED, ECHO_REQUEST, and BGP relays (handed to
    the speaker). *)

val originate : t -> member:Net.Asn.t -> Net.Ipv4.prefix -> unit

val withdraw_origin : t -> member:Net.Asn.t -> Net.Ipv4.prefix -> unit

val flush_recompute : t -> unit
(** Force pending dirty prefixes to recompute now. *)

val resync_member : t -> Net.Asn.t -> unit
(** A member switch restarted with an empty flow table: forget its
    installed rules and mark every known prefix dirty so the next batch
    re-pushes them. *)
