(** The cluster BGP speaker: terminates cluster members' external eBGP
    peerings (preserving AS identity), relays updates to/from the
    controller, and turns the controller's member decisions into each
    session's announcements, deduplicated against what the session was
    last sent. *)

type t

type session
(** One configured external peering: its member, neighbor and the
    policy governing it, resolved once at configuration. *)

val create :
  ?liveness:Bgp.Config.keepalive ->
  sim:Engine.Sim.t ->
  send_relay:(member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.t -> bool) ->
  unit ->
  t
(** [send_relay] forwards a wire message toward the neighbor via the
    member's border switch.  [liveness] enables per-session KEEPALIVE
    emission and hold-timer supervision (negotiated per RFC 4271: the
    session hold time is the minimum of both proposals, 0 disables). *)

val node : t -> Engine.Node.t
(** The runtime node: a crash silently loses every session's state; a
    restart re-opens each configured session with a NOTIFICATION-then-OPEN
    exchange so remote routers flush and resync. *)

val attach_controller :
  t ->
  on_update:(session -> Bgp.Message.update -> unit) ->
  on_session:(session -> up:bool -> unit) ->
  unit
(** Wire the controller in. *)

val add_session :
  ?mrai_config:Bgp.Config.t ->
  t ->
  member:Net.Asn.t ->
  neighbor:Net.Asn.t ->
  member_addr:Net.Ipv4.addr ->
  policy:Bgp.Policy.t ->
  unit
(** Configure one external peering, governed by [policy] for the
    controller's import and export.  [mrai_config] enables conventional
    MRAI pacing of the speaker's announcements (off by default).
    @raise Invalid_argument on a duplicate (member, neighbor). *)

val sessions : t -> session list
(** In configuration order. *)

val iter_sessions : t -> (session -> unit) -> unit
(** In configuration order, without building a list. *)

val session_member : session -> Net.Asn.t

val session_neighbor : session -> Net.Asn.t

val session_policy : session -> Bgp.Policy.t

val is_established : session -> bool

val sessions_of : t -> Net.Asn.t -> Net.Asn.t list

val session_established : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> bool

val open_session : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> unit

val open_all : t -> unit

val session_down : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> unit
(** E.g. after a PORT_STATUS down for the underlying link. *)

val handle_relay : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.t -> unit

val with_batch : t -> (unit -> 'a) -> 'a
(** Run [f] in an update-batching scope: announcements/withdrawals issued
    inside it coalesce per session and leave as one packed UPDATE per
    session when the outermost scope closes (sessions flushed in
    configuration order).  Outside any scope each change is sent
    immediately, as before. *)

val sync : t -> Net.Ipv4.prefix -> As_graph.decision Net.Asn.Map.t -> int
(** Send every established session, in configuration order, what its
    member's decision for the prefix exports to it (nothing when the
    member has none or the session may not be told), and record the
    decisions as the prefix's last sync.  A session that already holds
    that gets no change.  Returns how many sessions, established or
    not, the decisions export to. *)

val resync :
  t ->
  session ->
  Net.Ipv4.prefix list ->
  (Net.Ipv4.prefix -> As_graph.decision Net.Asn.Map.t) ->
  int
(** {!sync} one session for each of the prefixes, with those decisions,
    leaving the record as it is (a session's full-table sync when it
    comes up).  Returns how many of the prefixes export to it. *)

val session_count : t -> int

val queued_count : t -> int
(** Changes queued for all sessions and not yet sent. *)

val advertised : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> Net.Ipv4.prefix -> Bgp.Attrs.t option
(** The session's Adj-RIB-Out entry: its queued change for the prefix,
    else what its last synced decision exports to it. *)
