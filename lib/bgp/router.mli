(** A BGP speaker emulating one AS's border router: RIBs, decision
    process, relationship policies, per-peer MRAI, batched update
    processing.

    Received UPDATEs wait in the router's inbox, in arrival order.  The
    first to reach an empty inbox schedules one [bgp.process] event a
    processing delay ({!Config.processing_delay}) later; UPDATEs that
    arrive before it fires join the same batch.  The event applies every
    UPDATE of the batch (skipping one whose session went down since it
    arrived), then decides each touched prefix once.  A crash empties
    the inbox. *)

type stats = {
  mutable msgs_in : int;
  mutable msgs_out : int;
  mutable prefixes_in : int;  (** announced + withdrawn, over received UPDATEs *)
  mutable prefixes_out : int;  (** announced + withdrawn, over sent UPDATEs *)
  mutable withdrawals_in : int;
  mutable withdrawals_out : int;
  mutable decision_runs : int;
  mutable best_changes : int;
}
(** The router's counts.  They are also its registry series: the
    router's collector registers [bgp_updates_*], [bgp_withdrawals_*],
    [bgp_decision_runs_total], [bgp_best_changes_total],
    [bgp_hold_expirations_total], the two RIB gauges and every peer's
    [bgp_session_state] on the first snapshot, and brings them up to
    date on every snapshot. *)

type t

val create :
  sim:Engine.Sim.t ->
  asn:Net.Asn.t ->
  node_id:int ->
  router_id:Net.Ipv4.addr ->
  config:Config.t ->
  send:(dst:int -> Message.t -> bool) ->
  unit ->
  t
(** [send] delivers a message to a fabric node (wired to Netsim by the
    framework). *)

val name : t -> string

val asn : t -> Net.Asn.t

val node : t -> Engine.Node.t
(** The runtime node: lifecycle (crash/restart) and mailbox port
    target.  A crash loses all learned state but keeps
    [originate]d prefixes (configuration); a restart re-originates them
    and re-opens every session with a NOTIFICATION-then-OPEN exchange. *)

val node_id : t -> int

val stats : t -> stats

val subscribe_best_change : t -> (Net.Ipv4.prefix -> Route.t option -> unit) -> unit
(** Called whenever the Loc-RIB best route for a prefix changes (the
    framework marks legacy forwarding changes for the causal trace
    here). *)

val add_peer : t -> peer_asn:Net.Asn.t -> peer_node:int -> policy:Policy.t -> unit
(** Peers added in a row are sorted once, by the first call that reads
    them ({!start} at the latest).  A duplicate ASN raises
    [Invalid_argument]: here once the peers were read, else from that
    first read. *)

val peer_asns : t -> Net.Asn.t list

val peer_established : t -> Net.Asn.t -> bool

val session_state : t -> Net.Asn.t -> Session.state
(** Derived FSM state of the session toward [peer] ([Idle] for an
    unknown peer). *)

val open_session : t -> Net.Asn.t -> unit
(** Send an OPEN toward the peer (idempotent). *)

val start : t -> unit
(** Open sessions to all configured peers. *)

val session_down : t -> Net.Asn.t -> unit
(** Tear down the session: flush RIBs learned from/advertised to the peer
    and rerun the decision process. *)

val handle_message : t -> from:int -> Message.t -> unit
(** Fabric delivery entry point ([from] is the sender's node id).  An
    UPDATE is counted in {!stats} here and joins the inbox. *)

val originate : t -> Net.Ipv4.prefix -> unit

val withdraw_origin : t -> Net.Ipv4.prefix -> unit

val best : t -> Net.Ipv4.prefix -> Route.t option

val candidates : t -> Net.Ipv4.prefix -> Route.t list

val loc_entries : t -> (Net.Ipv4.prefix * Route.t) list

val iter_best : t -> (int -> Route.t -> unit) -> unit
(** The Loc-RIB bests in {!loc_entries} order, each prefix packed
    ({!Net.Ipv4.prefix_to_packed}); allocates nothing while the set of
    prefixes is unchanged since the last walk ({!Rib.Loc.iter}).  [f]
    must not change the router. *)

val adj_in_find : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> Route.t option

val adj_out_find : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> Attrs.t option
(** The peer's Adj-RIB-Out entry, derived rather than stored: [None]
    while the session is down; else the change queued for the peer, if
    any; else the export of the Loc-RIB best when the peer may be told of
    it (not its own route back, no loop, the export policy agrees). *)

val queued_count : t -> int
(** Changes queued for all peers and not yet sent: 0 once the router is
    at rest. *)

val adj_in_size : t -> int

val loc_size : t -> int
