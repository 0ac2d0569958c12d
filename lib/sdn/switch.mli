(** An OpenFlow switch acting as a cluster member's border device: it
    holds the flow table the controller programs and relays BGP between
    external neighbors and the cluster BGP speaker.  With [liveness] configured it
    heartbeats the controller and degrades into a legacy-BGP fallback
    route when the control plane goes silent.

    The switch keeps no counts of its own traffic: relays are counted by
    the fabric, FLOW_MODs by the controller.  It registers two series on
    first use, [controller_failovers_total] and [flow_rules_expired_total]. *)

type liveness = {
  echo_interval : Engine.Time.span;  (** ECHO_REQUEST probe period *)
  fail_after : Engine.Time.span;  (** control silence before fallback *)
}

type t

val create :
  ?liveness:liveness ->
  ?fallback_port:(unit -> Flow.port option) ->
  ?on_relay_drop:(unit -> unit) ->
  sim:Engine.Sim.t ->
  asn:Net.Asn.t ->
  node_id:int ->
  send_control:(Openflow.t -> bool) ->
  send_bgp:(dst:int -> Bgp.Message.t -> bool) ->
  asn_of_node:(int -> Net.Asn.t option) ->
  node_of_asn:(Net.Asn.t -> int option) ->
  unit ->
  t
(** [fallback_port] picks the legacy neighbor the fallback default route
    points at (consulted on failover and when the chosen port dies);
    [on_relay_drop] accounts BGP relays discarded because the control
    channel is down (wired to [Netsim.note_drop Session_down]). *)

val asn : t -> Net.Asn.t

val node : t -> Engine.Node.t
(** The runtime node; a crash empties the flow table (the controller
    re-installs rules when the member is resynced on restart). *)

val node_id : t -> int

val table : t -> Flow_table.t

val fallback_active : t -> bool
(** Whether the switch is currently degraded onto its legacy default
    route. *)

val handle_bgp : t -> from:int -> Bgp.Message.t -> unit
(** Encapsulate an external neighbor's BGP message toward the speaker. *)

val handle_control : t -> Openflow.t -> unit
(** Process a message from the controller (FLOW_MOD, relay, ECHO_REPLY,
    RESYNC_DONE).  An added rule with a hard timeout is removed when it
    expires, and the controller is told with FLOW_REMOVED. *)

val port_change : t -> peer:int -> up:bool -> unit
(** Report an adjacent link state change as PORT_STATUS. *)
