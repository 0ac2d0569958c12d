(** The network builder: a topology spec turned into a running emulation —
    legacy BGP routers, SDN switches under the IDR controller + cluster
    speaker, the monitoring collector, automatic addressing/policies, and
    the data-plane views over the programmed forwarding state. *)

type t

val collector_asn : Net.Asn.t

val create : ?config:Config.t -> seed:int -> Topology.Spec.t -> t
(** Build the emulation (validates the spec).  Call {!start} to open BGP
    sessions, then drive the simulator. *)

val start : t -> unit
(** Open all BGP sessions (routers and cluster speaker). *)

(* --- Accessors --- *)

val sim : t -> Engine.Sim.t

val fabric : t -> Payload.t Net.Netsim.t

val runtime_node : t -> Net.Asn.t -> Engine.Node.t option
(** The runtime node behind an AS (its router or switch) or, for
    {!collector_asn}, the collector. *)

val spec : t -> Topology.Spec.t

val plan : t -> Addressing.plan

val collector : t -> Bgp.Collector.t

val controller : t -> Cluster_ctl.Controller.t option

val speaker : t -> Cluster_ctl.Speaker.t option

val routers : t -> Bgp.Router.t Net.Asn.Map.t

val router : t -> Net.Asn.t -> Bgp.Router.t option

val switch : t -> Net.Asn.t -> Sdn.Switch.t option

val asns : t -> Net.Asn.t list

val sdn_asns : t -> Net.Asn.t list

val legacy_asns : t -> Net.Asn.t list

val asn_of_node : t -> int -> Net.Asn.t option

val link_up : t -> Net.Asn.t -> Net.Asn.t -> bool

val link_delay : t -> Net.Asn.t -> Net.Asn.t -> Engine.Time.span option

(* --- Experiment operations --- *)

val originate : t -> Net.Asn.t -> Net.Ipv4.prefix -> unit
(** Originate at a legacy router or (via the controller) an SDN member;
    also marks the prefix for local data-plane delivery. *)

val withdraw : t -> Net.Asn.t -> Net.Ipv4.prefix -> unit

val fail_link : t -> Net.Asn.t -> Net.Asn.t -> unit
(** @raise Invalid_argument when no such link exists. *)

val recover_link : t -> Net.Asn.t -> Net.Asn.t -> unit

val fail_ctrl_link : t -> Net.Asn.t -> unit
(** Partition a member switch from the cluster head: only the control
    channel goes down, data-plane links are untouched (with
    {!Config.t.switch_liveness} set, the member degrades onto its legacy
    fallback route).  @raise Invalid_argument when the AS has no control
    link. *)

val recover_ctrl_link : t -> Net.Asn.t -> unit

val ctrl_link_up : t -> Net.Asn.t -> bool

val start_loss_burst : t -> Net.Asn.t -> Net.Asn.t -> unit
(** 100% loss on the link while it still reports up: only KEEPALIVE/hold
    liveness can detect it.  @raise Invalid_argument when no such link
    exists. *)

val end_loss_burst : t -> Net.Asn.t -> Net.Asn.t -> unit
(** Restore the loss the link had before {!start_loss_burst} (no-op
    when no burst is active). *)

val heal_all_links : t -> unit
(** Bring every failed link (AS-AS, control, collector) back up —
    chaos-schedule epilogue. *)

val crash_node : t -> Net.Asn.t -> unit
(** Crash the AS's component process (router or switch): volatile state
    is lost (RIBs, and with them a router's forwarding, or the flow
    table), owned timers are
    cancelled, pending fabric deliveries are refused until restart.
    @raise Invalid_argument for an unknown AS. *)

val restart_node : t -> Net.Asn.t -> unit
(** Restart after {!crash_node}: a router re-announces its originations
    and re-opens every session with a NOTIFICATION-then-OPEN exchange; a
    switch comes back empty and the controller re-pushes its rules. *)

val crash_controller : t -> unit
(** Crash the cluster head — controller and speaker together (they are
    one emulated host).  @raise Invalid_argument without an SDN cluster. *)

val restart_controller : t -> unit
(** Restart the cluster head: the controller re-runs its pipeline for
    originated prefixes and external routes return as the speaker
    resyncs its sessions. *)

val settle : ?max_events:int -> t -> Engine.Time.t
(** Run until the event queue drains (full protocol quiescence including
    MRAI timers).  @raise Failure at the event-limit safety valve. *)

val run_until : t -> Engine.Time.t -> unit

val now : t -> Engine.Time.t

(* --- Data plane --- *)

type forwarding = Local | Next of int | No_route

val forwarding_at : t -> Net.Asn.t -> Net.Ipv4.addr -> forwarding
(** The AS's current forwarding decision for an address: [Local] for its
    router address and the prefixes it originates, else a longest-prefix
    match over the flow table (SDN members) or over the Loc-RIB bests
    learned over eBGP (legacy routers: the next hop is the peer the best
    came from; a local best is skipped), read without mutating either. *)

val dataplane_snapshot : t -> Net.Dataplane.t
(** Compile the composed forwarding state (legacy routers' learned
    bests + flow tables + local delivery sets + link liveness) into a frozen allocation-free
    fast-path snapshot over dense node indices.  Recompile after the
    control plane changes. *)
