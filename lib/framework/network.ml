(* The network builder: turn a topology spec into a running emulation.

   Layout on the fabric:
   - every AS is one node whose id is its raw ASN integer — a legacy node
     runs a Bgp.Router, an SDN node runs an Sdn.Switch;
   - node [collector_node] (-2) hosts the monitoring route collector,
     linked and peered with every AS;
   - node [ctrl_node] (-1) hosts the cluster BGP speaker and the IDR
     controller, linked to every SDN switch (the per-peering
     speaker-to-border-switch relay links of the paper);
   - the fabric carries BGP and OpenFlow only: the data plane is read
     from the legacy routers' Loc-RIBs and the switches' flow tables, by
     the walker ([forwarding_at]) and the compiled snapshot
     ([dataplane_snapshot]). *)

module Pm = Net.Ipv4.Prefix_map

let ctrl_node = -1

let collector_node = -2

let collector_asn = Net.Asn.of_int 4_200_000_000

(* Propagation delays: AS-AS links without a per-link delay in the spec,
   collector peerings and controller <-> switch control links. *)
let peering_delay = Engine.Time.ms 2

let collector_delay = Engine.Time.ms 1

let control_delay = Engine.Time.ms 1

type t = {
  sim : Engine.Sim.t;
  net : Payload.t Net.Netsim.t;
  spec : Topology.Spec.t;
  plan : Addressing.plan;
  config : Config.t;
  routers : Bgp.Router.t Net.Asn.Map.t;
  switches : Sdn.Switch.t Net.Asn.Map.t;
  local_prefixes : (Net.Asn.t, Net.Ipv4.Prefix_set.t ref) Hashtbl.t;
  collector : Bgp.Collector.t;
  controller : Cluster_ctl.Controller.t option;
  speaker : Cluster_ctl.Speaker.t option;
  (* link id -> the loss it had before its current loss burst *)
  burst_loss : (Net.Link.id, float) Hashtbl.t;
}

let sim t = t.sim

let fabric t = t.net

let spec t = t.spec

let plan t = t.plan

let collector t = t.collector

let controller t = t.controller

let speaker t = t.speaker

let routers t = t.routers

let router t asn = Net.Asn.Map.find_opt asn t.routers

let switch t asn = Net.Asn.Map.find_opt asn t.switches

(* --- Node registry ------------------------------------------------------ *)

(* The runtime node behind an AS (router or switch) or the collector; the
   registry is the fabric's attachment table, so Network itself holds no
   duplicate component bookkeeping. *)
let runtime_node t asn =
  if Net.Asn.equal asn collector_asn then
    Net.Netsim.attached_node t.net collector_node
  else if Topology.Spec.mem t.spec asn then
    Net.Netsim.attached_node t.net (Net.Asn.to_int asn)
  else None

let asns t = Topology.Spec.asns t.spec

let sdn_asns t = Topology.Spec.sdn_asns t.spec

let legacy_asns t = Topology.Spec.legacy_asns t.spec

let is_as_node t node = node > 0 && Topology.Spec.mem t.spec (Net.Asn.of_int node)

let asn_of_node t node =
  if node = collector_node then Some collector_asn
  else if is_as_node t node then Some (Net.Asn.of_int node)
  else None

let node_of_asn t asn =
  if Net.Asn.equal asn collector_asn then Some collector_node
  else if Topology.Spec.mem t.spec asn then Some (Net.Asn.to_int asn)
  else None

let local_set t asn =
  match Hashtbl.find_opt t.local_prefixes asn with
  | Some s -> s
  | None ->
    let s = ref Net.Ipv4.Prefix_set.empty in
    Hashtbl.replace t.local_prefixes asn s;
    s

let is_local_addr t asn addr =
  Net.Ipv4.equal_addr addr (t.plan.Addressing.router_addr asn)
  || Net.Ipv4.Prefix_set.exists (fun p -> Net.Ipv4.mem addr p) !(local_set t asn)

let add_local_prefix t asn prefix =
  let s = local_set t asn in
  s := Net.Ipv4.Prefix_set.add prefix !s

let remove_local_prefix t asn prefix =
  let s = local_set t asn in
  s := Net.Ipv4.Prefix_set.remove prefix !s

(* --- Construction ------------------------------------------------------- *)

let policy_relationship = function
  | Topology.Spec.Customer -> Bgp.Policy.Customer
  | Topology.Spec.Provider -> Bgp.Policy.Provider
  | Topology.Spec.Peer -> Bgp.Policy.Peer
  | Topology.Spec.Sibling -> Bgp.Policy.Sibling
  | Topology.Spec.Unrestricted -> Bgp.Policy.Unrestricted

(* [neighbor]'s relationship to [me] on spec link [l]. *)
let link_policy ~me l = policy_relationship (Topology.Spec.neighbor_role_of_link ~me l)

let create ?(config = Config.default) ~seed spec =
  (match Topology.Spec.validate spec with
  | [] -> ()
  | problems ->
    invalid_arg (Fmt.str "Network.create: invalid spec: %s" (String.concat "; " problems)));
  let sim = Engine.Sim.create ~seed ~causal:config.Config.causal () in
  let net = Net.Netsim.create sim in
  let plan = Addressing.plan spec in
  let all_asns = Topology.Spec.asns spec in
  let sdn = Topology.Spec.sdn_asns spec in
  let sdn_set = Net.Asn.Set.of_list sdn in
  let is_sdn asn = Net.Asn.Set.mem asn sdn_set in
  (* Fabric nodes. *)
  List.iter (fun asn -> Net.Netsim.add_node net ~id:(Net.Asn.to_int asn)) all_asns;
  Net.Netsim.add_node net ~id:collector_node;
  if sdn <> [] then Net.Netsim.add_node net ~id:ctrl_node;
  (* Fabric links: AS-AS per the spec, collector to everyone, control
     links to every switch. *)
  List.iter
    (fun (l : Topology.Spec.link_spec) ->
      let delay =
        match l.Topology.Spec.delay_us with
        | Some us -> Engine.Time.us us
        | None -> peering_delay
      in
      ignore
        (Net.Netsim.add_link ~delay net (Net.Asn.to_int l.Topology.Spec.a)
           (Net.Asn.to_int l.Topology.Spec.b)))
    (Topology.Spec.links spec);
  List.iter
    (fun asn ->
      ignore (Net.Netsim.add_link ~delay:collector_delay net collector_node (Net.Asn.to_int asn)))
    all_asns;
  List.iter
    (fun asn ->
      ignore (Net.Netsim.add_link ~delay:control_delay net ctrl_node (Net.Asn.to_int asn)))
    sdn;
  let send_bgp_via ~src ~dst msg = Net.Netsim.send net ~src ~dst (Payload.Bgp msg) in
  (* Collector. *)
  let collector =
    Bgp.Collector.create ~retention:config.Config.collector_retention ~sim
      ~asn:collector_asn ~router_id:(Net.Ipv4.addr_of_octets 10 255 255 1)
      ~send:(fun ~dst msg -> send_bgp_via ~src:collector_node ~dst msg)
      ()
  in
  (* Legacy routers. *)
  let routers =
    List.fold_left
      (fun acc asn ->
        if is_sdn asn then acc
        else begin
          let node_id = Net.Asn.to_int asn in
          let router =
            Bgp.Router.create ~sim ~asn ~node_id
              ~router_id:(plan.Addressing.router_addr asn) ~config:config.Config.bgp
              ~send:(fun ~dst msg -> send_bgp_via ~src:node_id ~dst msg)
              ()
          in
          Net.Asn.Map.add asn router acc
        end)
      Net.Asn.Map.empty all_asns
  in
  (* Configure router peers: spec neighbors (from the spec's index, in
     link-list order) + the collector. *)
  Net.Asn.Map.iter
    (fun asn router ->
      Topology.Spec.iter_links_of spec asn (fun l ->
          let neighbor = Topology.Spec.other_end ~me:asn l in
          Bgp.Router.add_peer router ~peer_asn:neighbor ~peer_node:(Net.Asn.to_int neighbor)
            ~policy:(link_policy ~me:asn l));
      Bgp.Router.add_peer router ~peer_asn:collector_asn ~peer_node:collector_node
        ~policy:Bgp.Policy.Customer;
      Bgp.Collector.add_peer collector ~peer_asn:asn ~peer_node:(Net.Asn.to_int asn))
    routers;
  (* A legacy router forwards from its Loc-RIB (see [forwarding_at]), so
     a best change is where its forwarding changes: the causal trace marks
     it there. *)
  Net.Asn.Map.iter
    (fun _ router ->
      let node = Engine.Node.trace_node (Bgp.Router.node router) in
      Bgp.Router.subscribe_best_change router (fun prefix _ ->
          Engine.Sim.mark sim ~category:"fib.write" ~node
            ~render:Net.Ipv4.packed_prefix_to_string (Net.Ipv4.prefix_to_packed prefix)))
    routers;
  (* The record is needed by the switch/controller closures below; build
     it first with placeholders for the SDN parts, then fill them in. *)
  let t_ref = ref None in
  let the () = Option.get !t_ref in
  (* Cluster: speaker + controller + switches. *)
  let speaker, controller, switches =
    if sdn = [] then (None, None, Net.Asn.Map.empty)
    else begin
      let send_relay ~member ~neighbor msg =
        (* speaker -> member's border switch, encapsulated *)
        Net.Netsim.send net ~src:ctrl_node ~dst:(Net.Asn.to_int member)
          (Payload.Openflow
             (Sdn.Openflow.Bgp_relay
                { member; neighbor; direction = Sdn.Openflow.To_neighbor; payload = msg }))
      in
      let speaker =
        Cluster_ctl.Speaker.create ?liveness:config.Config.speaker_liveness ~sim ~send_relay ()
      in
      (* One speaker session per external peering of each member (legacy
         neighbors, members of *other* sub-networks are still neighbors on
         the wire but handled intra-cluster, and the collector). *)
      List.iter
        (fun member ->
          Topology.Spec.iter_links_of spec member (fun l ->
              let neighbor = Topology.Spec.other_end ~me:member l in
              if not (is_sdn neighbor) then
                Cluster_ctl.Speaker.add_session ?mrai_config:config.Config.speaker_mrai speaker
                  ~member ~neighbor ~member_addr:(plan.Addressing.router_addr member)
                  ~policy:(link_policy ~me:member l));
          Cluster_ctl.Speaker.add_session ?mrai_config:config.Config.speaker_mrai speaker
            ~member ~neighbor:collector_asn
            ~member_addr:(plan.Addressing.router_addr member)
            ~policy:Bgp.Policy.Customer;
          Bgp.Collector.add_peer collector ~peer_asn:member ~peer_node:(Net.Asn.to_int member))
        sdn;
      let intra_links =
        List.filter_map
          (fun (l : Topology.Spec.link_spec) ->
            if is_sdn l.Topology.Spec.a && is_sdn l.Topology.Spec.b then
              Some (l.Topology.Spec.a, l.Topology.Spec.b)
            else None)
          (Topology.Spec.links spec)
      in
      let controller =
        Cluster_ctl.Controller.create ?flow_hard_timeout:config.Config.flow_hard_timeout ~sim
          ~config:config.Config.controller ~members:sdn ~speaker
          ~send_switch:(fun ~member msg ->
            Net.Netsim.send net ~src:ctrl_node ~dst:(Net.Asn.to_int member)
              (Payload.Openflow msg))
          ~node_of_asn:(fun asn -> node_of_asn (the ()) asn)
          ~asn_of_node:(fun node -> asn_of_node (the ()) node)
          ~intra_links ()
      in
      (* Fallback egress for a degraded member: its lowest-numbered legacy
         neighbor whose link is still up (deterministic, re-picked by the
         switch when the chosen port dies). *)
      let link_is_up a b =
        match Net.Netsim.link_between net (Net.Asn.to_int a) (Net.Asn.to_int b) with
        | Some l -> Net.Link.is_up l
        | None -> false
      in
      let fallback_port_for member () =
        let best = ref None in
        Topology.Spec.iter_links_of spec member (fun l ->
            let n = Topology.Spec.other_end ~me:member l in
            if
              (not (is_sdn n))
              && link_is_up member n
              && match !best with Some b -> Net.Asn.compare n b < 0 | None -> true
            then best := Some n);
        Option.map Net.Asn.to_int !best
      in
      let switches =
        List.fold_left
          (fun acc member ->
            let node_id = Net.Asn.to_int member in
            let sw =
              Sdn.Switch.create ?liveness:config.Config.switch_liveness
                ~fallback_port:(fallback_port_for member)
                ~on_relay_drop:(fun () -> Net.Netsim.note_drop net Net.Netsim.Session_down)
                ~sim ~asn:member ~node_id
                ~send_control:(fun msg ->
                  Net.Netsim.send net ~src:node_id ~dst:ctrl_node (Payload.Openflow msg))
                ~send_bgp:(fun ~dst msg -> send_bgp_via ~src:node_id ~dst msg)
                ~asn_of_node:(fun node -> asn_of_node (the ()) node)
                ~node_of_asn:(fun asn -> node_of_asn (the ()) asn)
                ()
            in
            Net.Asn.Map.add member sw acc)
          Net.Asn.Map.empty sdn
      in
      (Some speaker, Some controller, switches)
    end
  in
  let t =
    {
      sim;
      net;
      spec;
      plan;
      config;
      routers;
      switches;
      local_prefixes = Hashtbl.create 16;
      collector;
      controller;
      speaker;
      burst_loss = Hashtbl.create 4;
    }
  in
  t_ref := Some t;
  (* Ingress: every fabric node's deliveries go through its component's
     runtime-node mailbox, so a crashed component refuses traffic at the
     fabric boundary (counted as [node_down] drops) instead of having a
     stale closure poke dead state. *)
  Net.Asn.Map.iter
    (fun asn router ->
      Net.Netsim.attach net (Net.Asn.to_int asn)
        (Engine.Node.port (Bgp.Router.node router) ~handler:(fun ~from msg ->
             match msg with
             | Payload.Bgp m -> Bgp.Router.handle_message router ~from m
             | Payload.Openflow _ -> ())))
    routers;
  Net.Asn.Map.iter
    (fun asn sw ->
      Net.Netsim.attach net (Net.Asn.to_int asn)
        (Engine.Node.port (Sdn.Switch.node sw) ~handler:(fun ~from msg ->
             match msg with
             | Payload.Bgp m -> Sdn.Switch.handle_bgp sw ~from m
             | Payload.Openflow c ->
               if from = ctrl_node then Sdn.Switch.handle_control sw c)))
    switches;
  Net.Netsim.attach net collector_node
    (Engine.Node.port (Bgp.Collector.node collector) ~handler:(fun ~from msg ->
         match msg with
         | Payload.Bgp m -> Bgp.Collector.handle_message collector ~from m
         | Payload.Openflow _ -> ()));
  (match controller with
  | Some ctrl ->
    (* The cluster head: the controller's runtime node gates the shared
       fabric node, so a controller crash also silences the speaker's
       relayed BGP (they are one emulated process, see
       {!crash_controller}). *)
    Net.Netsim.attach net ctrl_node
      (Engine.Node.port (Cluster_ctl.Controller.node ctrl) ~handler:(fun ~from:_ msg ->
           match msg with
           | Payload.Openflow m -> Cluster_ctl.Controller.handle_openflow ctrl m
           | Payload.Bgp _ -> ()))
  | None -> ());
  (* Link watchers: session lifecycle for legacy routers, PORT_STATUS for
     switches. *)
  Net.Asn.Map.iter
    (fun asn router ->
      (* Detection delays run on the router's node: if it crashes while
         the timer is pending, the epoch guard discards the stale event. *)
      let node = Bgp.Router.node router in
      Net.Netsim.set_link_watcher net (Net.Asn.to_int asn) (fun ~link ~peer ~up ->
          match asn_of_node t peer with
          | None -> ()
          | Some peer_asn ->
            if up then
              Engine.Node.schedule_after node
                config.Config.bgp.Bgp.Config.session_open_delay (fun () ->
                  if Net.Link.is_up link then Bgp.Router.open_session router peer_asn)
            else
              Engine.Node.schedule_after node
                config.Config.bgp.Bgp.Config.session_down_detect (fun () ->
                  if not (Net.Link.is_up link) then Bgp.Router.session_down router peer_asn)))
    routers;
  Net.Asn.Map.iter
    (fun _ sw ->
      Net.Netsim.set_link_watcher net (Sdn.Switch.node_id sw) (fun ~link:_ ~peer ~up ->
          if peer <> ctrl_node && Engine.Node.is_up (Sdn.Switch.node sw) then
            Sdn.Switch.port_change sw ~peer ~up))
    switches;
  t

(* Open all BGP sessions (idempotent). *)
let start t =
  Net.Asn.Map.iter (fun _ r -> Bgp.Router.start r) t.routers;
  Option.iter Cluster_ctl.Speaker.open_all t.speaker

(* --- Experiment-facing operations -------------------------------------- *)

(* Root a causal span per experiment action so the whole convergence
   fan-out (sessions, MRAI holds, recomputes, flow installs, FIB writes)
   hangs off one tree per action. *)
let action_span t ~category ~asn ~prefix f =
  if Engine.Causal.enabled (Engine.Sim.causal t.sim) then
    Engine.Sim.with_span t.sim ~category ~node:(Net.Asn.to_string asn)
      ~label:(Net.Ipv4.prefix_to_string prefix) f
  else f ()

let originate t asn prefix =
  action_span t ~category:"action.originate" ~asn ~prefix @@ fun () ->
  add_local_prefix t asn prefix;
  match Net.Asn.Map.find_opt asn t.routers with
  | Some router -> Bgp.Router.originate router prefix
  | None -> (
    match t.controller with
    | Some ctrl -> Cluster_ctl.Controller.originate ctrl ~member:asn prefix
    | None -> invalid_arg (Fmt.str "Network.originate: unknown AS %a" Net.Asn.pp asn))

let withdraw t asn prefix =
  action_span t ~category:"action.withdraw" ~asn ~prefix @@ fun () ->
  remove_local_prefix t asn prefix;
  match Net.Asn.Map.find_opt asn t.routers with
  | Some router -> Bgp.Router.withdraw_origin router prefix
  | None -> (
    match t.controller with
    | Some ctrl -> Cluster_ctl.Controller.withdraw_origin ctrl ~member:asn prefix
    | None -> invalid_arg (Fmt.str "Network.withdraw: unknown AS %a" Net.Asn.pp asn))

let fail_link t a b =
  if not (Net.Netsim.fail_link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b)) then
    invalid_arg
      (Fmt.str "Network.fail_link: no link %a<->%a" Net.Asn.pp a Net.Asn.pp b)

let recover_link t a b =
  if not (Net.Netsim.recover_link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b)) then
    invalid_arg
      (Fmt.str "Network.recover_link: no link %a<->%a" Net.Asn.pp a Net.Asn.pp b)

(* Partition one member from the cluster head (the control channel only:
   data-plane links are untouched, so the member's fallback route still
   carries traffic). *)
let fail_ctrl_link t member =
  if not (Net.Netsim.fail_link_between t.net (Net.Asn.to_int member) ctrl_node) then
    invalid_arg (Fmt.str "Network.fail_ctrl_link: %a has no control link" Net.Asn.pp member)

let recover_ctrl_link t member =
  if not (Net.Netsim.recover_link_between t.net (Net.Asn.to_int member) ctrl_node) then
    invalid_arg
      (Fmt.str "Network.recover_ctrl_link: %a has no control link" Net.Asn.pp member)

let as_link op t a b =
  match Net.Netsim.link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b) with
  | Some link -> link
  | None -> invalid_arg (Fmt.str "Network.%s: no link %a<->%a" op Net.Asn.pp a Net.Asn.pp b)

(* A loss burst drops everything on a link that still reports up, so
   only KEEPALIVE/hold liveness can see it.  The heal restores the loss
   the link had before the burst (the first one, if bursts overlap). *)
let start_loss_burst t a b =
  let link = as_link "start_loss_burst" t a b in
  if not (Hashtbl.mem t.burst_loss (Net.Link.id link)) then
    Hashtbl.replace t.burst_loss (Net.Link.id link) (Net.Link.loss link);
  Net.Link.set_loss link 1.0

let end_loss_burst t a b =
  let link = as_link "end_loss_burst" t a b in
  match Hashtbl.find_opt t.burst_loss (Net.Link.id link) with
  | Some loss ->
    Hashtbl.remove t.burst_loss (Net.Link.id link);
    Net.Link.set_loss link loss
  | None -> ()

let ctrl_link_up t member =
  match Net.Netsim.link_between t.net (Net.Asn.to_int member) ctrl_node with
  | Some link -> Net.Link.is_up link
  | None -> false

(* Bring every failed link (AS-AS, control and collector) back up —
   chaos-schedule epilogue. *)
let heal_all_links t =
  List.iter
    (fun link -> if not (Net.Link.is_up link) then Net.Netsim.set_link_up t.net link true)
    (Net.Netsim.links t.net)

(* --- Component lifecycle (crash / restart) ------------------------------ *)

let unknown_as op asn = invalid_arg (Fmt.str "Network.%s: unknown AS %a" op Net.Asn.pp asn)

let crash_node t asn =
  match Net.Asn.Map.find_opt asn t.routers with
  | Some r -> Engine.Node.crash (Bgp.Router.node r)
  | None -> (
    match Net.Asn.Map.find_opt asn t.switches with
    | Some sw -> Engine.Node.crash (Sdn.Switch.node sw)
    | None -> unknown_as "crash_node" asn)

let restart_node t asn =
  match Net.Asn.Map.find_opt asn t.routers with
  | Some r -> Engine.Node.restart (Bgp.Router.node r)
  | None -> (
    match Net.Asn.Map.find_opt asn t.switches with
    | Some sw ->
      Engine.Node.restart (Sdn.Switch.node sw);
      (* the switch came back with an empty flow table, so the
         controller's installed-rule shadow is stale until it re-pushes *)
      Option.iter (fun c -> Cluster_ctl.Controller.resync_member c asn) t.controller
    | None -> unknown_as "restart_node" asn)

(* The cluster head is one emulated host running both processes: crashing
   it takes the controller and the speaker down together. *)
let crash_controller t =
  match (t.controller, t.speaker) with
  | Some ctrl, Some sp ->
    Engine.Node.crash (Cluster_ctl.Controller.node ctrl);
    Engine.Node.crash (Cluster_ctl.Speaker.node sp)
  | _ -> invalid_arg "Network.crash_controller: no SDN cluster in this topology"

let restart_controller t =
  match (t.controller, t.speaker) with
  | Some ctrl, Some sp ->
    (* controller first, so the speaker's session resync finds a live
       update handler behind [on_update] *)
    Engine.Node.restart (Cluster_ctl.Controller.node ctrl);
    Engine.Node.restart (Cluster_ctl.Speaker.node sp)
  | _ -> invalid_arg "Network.restart_controller: no SDN cluster in this topology"

(* Run the simulation until no events remain (the network is idle: all
   protocol activity, including MRAI timers, has quiesced) or safety
   limits are hit. *)
let settle ?(max_events = 10_000_000) t =
  match Engine.Sim.run ~max_events t.sim with
  | Engine.Sim.Exhausted -> Engine.Sim.now t.sim
  | Engine.Sim.Reached_limit -> failwith "Network.settle: event limit hit (divergence?)"
  | Engine.Sim.Reached_time _ -> assert false

let run_until t time = ignore (Engine.Sim.run ~until:time t.sim)

let now t = Engine.Sim.now t.sim

let link_up t a b =
  match Net.Netsim.link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b) with
  | Some link -> Net.Link.is_up link
  | None -> false

let link_delay t a b =
  match Net.Netsim.link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b) with
  | Some link -> Some (Net.Link.delay link)
  | None -> None

(* Forwarding-state introspection for the connectivity walker. *)
type forwarding = Local | Next of int | No_route

(* A legacy router's forwarding is derived from its Loc-RIB, as the
   kernel FIB a router installs from its RIB: a prefix whose best was
   learned over eBGP forwards to the peer it came from (an AS's node id
   is its AS number); a local best, or none, installs nothing.  A crash
   clears the Loc-RIB, and with it the router's forwarding. *)
let rec learned_next router addr len =
  if len < 0 then None
  else
    match Bgp.Router.best router (Net.Ipv4.prefix addr len) with
    | Some best when not (Bgp.Route.is_local best) -> Some (Bgp.Route.neighbor best)
    | Some _ | None -> learned_next router addr (len - 1)

(* Every AS forwards by one longest-prefix match: an SDN member over its
   flow table, a legacy router over its learned bests. *)
let forwarding_at t asn (addr : Net.Ipv4.addr) =
  if is_local_addr t asn addr then Local
  else
    let next =
      match Net.Asn.Map.find_opt asn t.switches with
      | Some sw -> Option.map Sdn.Flow.out_port (Net.Fib.lookup_value (Sdn.Switch.table sw) addr)
      | None ->
        Option.bind (Net.Asn.Map.find_opt asn t.routers) (fun r -> learned_next r addr 32)
    in
    match next with Some node -> Next node | None -> No_route

(* Compile the composed forwarding state — legacy Loc-RIBs, flow tables,
   local delivery sets, link liveness — into a frozen [Net.Dataplane]
   snapshot over dense node indices.  The snapshot mirrors
   [forwarding_at] plus the [link_up] check of the connectivity walker.
   Next hops (fabric node ids) become dense indices as the live tables
   are read, so the hot path never maps ids per hop. *)
let dataplane_snapshot t =
  let as_list = Topology.Spec.asns t.spec in
  let asns = Array.of_list (List.map Net.Asn.to_int as_list) in
  let dp = Net.Dataplane.create ~asns in
  let idx asn = Net.Dataplane.index_of dp (Net.Asn.to_int asn) in
  (* An AS's fabric node id is its AS number, so [index_of] is [-1]
     ([drop]) exactly for the nodes outside the snapshot. *)
  let code_of_node = Net.Dataplane.index_of dp in
  List.iter
    (fun asn ->
      let i = idx asn in
      Net.Dataplane.add_local_addr dp i (t.plan.Addressing.router_addr asn);
      Net.Ipv4.Prefix_set.iter (fun p -> Net.Dataplane.add_local dp i p) !(local_set t asn);
      match Net.Asn.Map.find_opt asn t.switches with
      | Some sw ->
        Net.Dataplane.set_fib dp i (Sdn.Switch.table sw) ~code:(fun r ->
            code_of_node (Sdn.Flow.out_port r))
      | None ->
        Option.iter
          (fun router ->
            Net.Dataplane.set_entries dp i ~max:(Bgp.Router.loc_size router) (fun add ->
                Bgp.Router.iter_best router (fun packed best ->
                    if not (Bgp.Route.is_local best) then
                      add packed (code_of_node (Bgp.Route.neighbor best)))))
          (Net.Asn.Map.find_opt asn t.routers))
    as_list;
  Net.Netsim.iter_links t.net (fun link ->
      if Net.Link.is_up link then begin
        let a, b = Net.Link.endpoints link in
        let i = Net.Dataplane.index_of dp a and j = Net.Dataplane.index_of dp b in
        if i >= 0 && j >= 0 then begin
          Net.Dataplane.set_link dp i j true;
          Net.Dataplane.set_link dp j i true
        end
      end);
  Net.Dataplane.compile dp;
  dp
