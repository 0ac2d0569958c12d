(* An OpenFlow switch standing as a cluster member AS's border device.

   Its flow table is programmed proactively by the controller and read by
   the data-plane snapshot and the forwarding walker.  BGP messages
   arriving from external (legacy) neighbors are not processed locally —
   the switch encapsulates them toward the cluster BGP speaker
   (BGP_RELAY), and relays the speaker's messages back out to the
   neighbors, exactly the control-plane relaying the paper describes.

   Failure domain: when [liveness] is configured the switch probes the
   controller with ECHO_REQUESTs and, after [fail_after] of control-plane
   silence, degrades into legacy fallback mode — a 0.0.0.0/0 default
   route, matched only where no SDN rule is, toward a surviving legacy
   neighbor (the OSHI-style "legacy plane stays live" answer to
   controller death).  Installed flow rules keep expiring on their hard
   timeouts, so stale SDN paths decay onto the fallback route instead of
   blackholing.  The switch leaves fallback only on the controller's
   RESYNC_DONE, sent after the restarted controller has replayed speaker
   state and reinstalled the member's flows. *)

type liveness = {
  echo_interval : Engine.Time.span;  (* ECHO_REQUEST probe period *)
  fail_after : Engine.Time.span;  (* control silence before fallback *)
}

type t = {
  sim : Engine.Sim.t;
  node : Engine.Node.t;
  asn : Net.Asn.t;
  asn_trace : int; (* the causal-store node of this switch's markers: its AS *)
  node_id : int;
  table : Flow_table.t;
  liveness : liveness option;
  fallback_port : unit -> Flow.port option;
  on_relay_drop : unit -> unit;
  send_control : Openflow.t -> bool;
  send_bgp : dst:int -> Bgp.Message.t -> bool;
  asn_of_node : int -> Net.Asn.t option;
  node_of_asn : Net.Asn.t -> int option;
  mutable last_ctrl_seen : Engine.Time.t;
  mutable fallback : Flow.rule option; (* the installed legacy default route *)
  mutable supervise : Engine.Timer.t option;
  mutable failovers_c : Engine.Metrics.Counter.t option; (* lazy *)
  mutable expired_c : Engine.Metrics.Counter.t option; (* lazy *)
}

let prefix_all = Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 0 0 0 0) 0

(* Registered on first failover so failure-free runs export exactly the
   series they always did. *)
let count_failover t =
  let c =
    match t.failovers_c with
    | Some c -> c
    | None ->
      let c =
        Engine.Metrics.counter (Engine.Sim.metrics t.sim)
          ~help:"switch transitions into legacy fallback mode"
          ~labels:[ ("node", Net.Asn.to_string t.asn) ]
          "controller_failovers_total"
      in
      t.failovers_c <- Some c;
      c
  in
  Engine.Metrics.Counter.inc c

let count_expired t =
  let c =
    match t.expired_c with
    | Some c -> c
    | None ->
      let c =
        Engine.Metrics.counter (Engine.Sim.metrics t.sim)
          ~help:"flow rules removed by timeout"
          ~labels:[ ("node", Net.Asn.to_string t.asn); ("reason", "hard") ]
          "flow_rules_expired_total"
      in
      t.expired_c <- Some c;
      c
  in
  Engine.Metrics.Counter.inc c

(* --- Legacy fallback ---------------------------------------------------- *)

let fallback_active t = Option.is_some t.fallback

let install_fallback t port =
  let rule = Flow.make ~match_prefix:prefix_all (Flow.Output port) in
  Flow_table.add t.table rule;
  t.fallback <- Some rule

let enter_fallback t =
  if not (fallback_active t) then begin
    count_failover t;
    Option.iter (install_fallback t) (t.fallback_port ())
  end

let exit_fallback t =
  match t.fallback with
  | None -> ()
  | Some rule ->
    ignore (Flow_table.remove_physical t.table rule);
    t.fallback <- None

(* The fallback port died: re-pick a surviving legacy neighbor. *)
let repick_fallback t =
  match t.fallback with
  | None -> ()
  | Some rule ->
    ignore (Flow_table.remove_physical t.table rule);
    t.fallback <- None;
    Option.iter (install_fallback t) (t.fallback_port ())

let start_supervision t =
  match (t.liveness, t.supervise) with
  | None, _ | _, None -> ()
  | Some { echo_interval; _ }, Some timer -> Engine.Timer.start timer echo_interval

let supervise_tick t =
  match t.liveness with
  | None -> ()
  | Some { echo_interval; fail_after } ->
    ignore (t.send_control (Openflow.Echo_request { switch_asn = t.asn }));
    let silent = Engine.Time.diff (Engine.Sim.now t.sim) t.last_ctrl_seen in
    if Engine.Time.(silent >= fail_after) then enter_fallback t;
    Option.iter (fun timer -> Engine.Timer.start timer echo_interval) t.supervise

let create ?liveness ?(fallback_port = fun () -> None) ?(on_relay_drop = fun () -> ())
    ~sim ~asn ~node_id ~send_control ~send_bgp ~asn_of_node ~node_of_asn () =
  let node =
    Engine.Node.create ~kind:"switch" sim ~name:(Fmt.str "sw-%a" Net.Asn.pp asn)
  in
  let t =
  {
    sim;
    node;
    asn;
    asn_trace = Engine.Sim.trace_node sim (Net.Asn.to_string asn);
    node_id;
    table =
      Flow_table.create ~metrics:(Engine.Sim.metrics sim)
        ~labels:[ ("node", Net.Asn.to_string asn) ]
        ();
    liveness;
    fallback_port;
    on_relay_drop;
    send_control;
    send_bgp;
    asn_of_node;
    node_of_asn;
    last_ctrl_seen = Engine.Sim.now sim;
    fallback = None;
    supervise = None;
    failovers_c = None;
    expired_c = None;
  }
  in
  (* One supervision timer per switch, owned by the node: a crash cancels
     it and every start re-arms it. *)
  (match liveness with
  | None -> ()
  | Some _ ->
    t.supervise <-
      Some
        (Engine.Node.timer ~category:"sdn.liveness" node
           ~callback:(fun () -> supervise_tick t)));
  (* A crashed switch loses its flow table; the controller re-installs
     rules when the framework resyncs the member on restart. *)
  Engine.Node.on_crash node (fun () ->
      Flow_table.clear t.table;
      t.fallback <- None);
  Engine.Node.on_start node (fun ~first:_ ->
      t.last_ctrl_seen <- Engine.Sim.now sim;
      start_supervision t);
  Engine.Node.start node;
  t

let asn t = t.asn

let node t = t.node

let node_id t = t.node_id

let table t = t.table

(* Hard-timeout enforcement.  The timer holds the physical rule record,
   so a same-prefix replacement installed later is untouched by the old
   timer. *)
let arm_timeout t (rule : Flow.rule) =
  Option.iter
    (fun span ->
      Engine.Node.schedule_after ~category:"sdn.timeout" t.node span (fun () ->
          if Flow_table.remove_physical t.table rule then begin
            count_expired t;
            ignore (t.send_control (Openflow.Flow_removed { switch_asn = t.asn; rule }))
          end))
    rule.Flow.hard_timeout

(* BGP from an external neighbor: encapsulate toward the speaker.  The
   relay is always attempted — even while degraded — so that a restarted
   controller's session handshakes complete before RESYNC_DONE arrives;
   only a dead control *link* (send refused) discards here, accounted as
   [session_down] via [on_relay_drop].  (Relays sent while the controller
   node is down are dropped at delivery and accounted as [node_down].) *)
let handle_bgp t ~from msg =
  match t.asn_of_node from with
  | None -> ()
  | Some neighbor ->
    if
      not
        (t.send_control
           (Openflow.Bgp_relay
              { member = t.asn; neighbor; direction = Openflow.To_speaker; payload = msg }))
    then t.on_relay_drop ()

let handle_control t msg =
  t.last_ctrl_seen <- Engine.Sim.now t.sim;
  match msg with
  | Openflow.Hello -> ignore (t.send_control Openflow.Hello)
  | Openflow.Echo_reply -> () (* liveness already refreshed above *)
  | Openflow.Resync_done -> exit_fallback t
  | Openflow.Flow_mod { command; rule } -> begin
    Engine.Sim.mark t.sim
      ~category:
        (match command with
        | Openflow.Add -> "flow.install"
        | Openflow.Delete -> "flow.remove")
      ~node:t.asn_trace ~render:Net.Ipv4.packed_prefix_to_string
      (Net.Ipv4.prefix_to_packed rule.Flow.match_prefix);
    match command with
    | Openflow.Add ->
      Flow_table.add t.table rule;
      arm_timeout t rule
    | Openflow.Delete -> Flow_table.delete t.table ~match_prefix:rule.Flow.match_prefix
  end
  | Openflow.Bgp_relay { neighbor; direction = Openflow.To_neighbor; payload; _ } -> begin
    match t.node_of_asn neighbor with
    | Some dst -> ignore (t.send_bgp ~dst payload)
    | None -> ()
  end
  | Openflow.Bgp_relay _ | Openflow.Port_status _ | Openflow.Flow_removed _
  | Openflow.Echo_request _ -> ()

(* Adjacent link changed state: report to the controller, and re-pick the
   legacy fallback route when its egress just died. *)
let port_change t ~peer ~up =
  (match t.fallback with
  | Some { Flow.action = Flow.Output port; _ } when (not up) && port = peer ->
    repick_fallback t
  | Some _ | None -> ());
  ignore (t.send_control (Openflow.Port_status { switch_asn = t.asn; port = peer; up }))
