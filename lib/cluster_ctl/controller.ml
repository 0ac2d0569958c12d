(* The proof-of-concept IDR SDN controller (the POX application role).

   Inputs: external BGP updates relayed by the cluster speaker, port
   status from member switches, and locally originated prefixes.
   State: the switch graph, a cluster-wide external RIB, and the last
   computed per-prefix decisions.
   Outputs: FLOW_MODs to member switches and BGP announcements through
   the speaker — one centralized decision replacing the members'
   distributed path exploration.

   Recomputation is *delayed*: external input marks prefixes dirty and a
   batch recomputation runs after [recompute_delay], which both
   rate-limits route flaps during bursts (the paper's design insight) and
   is the mechanism by which centralization shortens convergence. *)

module Pm = Net.Ipv4.Prefix_map

type config = { recompute_delay : Engine.Time.span }

let default_config = { recompute_delay = Engine.Time.sec 2 }

type stats = {
  mutable updates_in : int;
  mutable recompute_batches : int;
  mutable prefixes_recomputed : int;
  mutable recompute_skipped : int;
  mutable flow_mods : int;
  mutable announces : int;
  mutable withdraws : int;
  mutable decision_changes : int;
}

(* Everything [recompute_prefix] reads for one prefix.  When these match
   the previous run's inputs, [As_graph.compute] — deterministic — would
   reproduce the previous decisions, the flow diff would be empty and the
   speaker would deduplicate every announcement, so the run is skipped
   outright.  The RIB slice is kept in canonical (member, neighbor) order
   by [upsert_route], so plain list equality is a faithful comparison. *)
type fingerprint = {
  fp_routes : As_graph.exit_route list;
  fp_originators : Net.Asn.Set.t;
  fp_graph_version : int;
}

let exit_route_equal (a : As_graph.exit_route) (b : As_graph.exit_route) =
  Net.Asn.equal a.As_graph.member b.As_graph.member
  && Net.Asn.equal a.As_graph.neighbor b.As_graph.neighbor
  && a.As_graph.rel = b.As_graph.rel
  && Bgp.Attrs.wire_equal a.As_graph.attrs b.As_graph.attrs
  && a.As_graph.attrs.Bgp.Attrs.local_pref = b.As_graph.attrs.Bgp.Attrs.local_pref

let fingerprint_equal a b =
  a.fp_graph_version = b.fp_graph_version
  && Net.Asn.Set.equal a.fp_originators b.fp_originators
  && List.compare_lengths a.fp_routes b.fp_routes = 0
  && List.for_all2 exit_route_equal a.fp_routes b.fp_routes

type t = {
  sim : Engine.Sim.t;
  node : Engine.Node.t;
  config : config;
  flow_hard_timeout : Engine.Time.span option;
  members : Net.Asn.Set.t;
  speaker : Speaker.t;
  send_switch : member:Net.Asn.t -> Sdn.Openflow.t -> bool;
  node_of_asn : Net.Asn.t -> int option;
  asn_of_node : int -> Net.Asn.t option;
  switch_graph : Net.Graph.t;
  arena : As_graph.arena;
  mutable rib : As_graph.exit_route list Pm.t;
  mutable originated : Net.Asn.Set.t Pm.t;
  mutable installed : Sdn.Flow.action Net.Asn.Map.t Pm.t;
  mutable decisions : As_graph.decision Net.Asn.Map.t Pm.t;
  mutable fingerprints : fingerprint Pm.t;
  recompute : Recompute.t;
  mutable resyncing : Net.Asn.Set.t;
      (* members owed a RESYNC_DONE once the next recompute batch has
         reinstalled their flow state (fallback-exit handshake) *)
  mutable on_decision_change :
    (Net.Ipv4.prefix -> Net.Asn.t -> As_graph.decision option -> unit) array;
  stats : stats;
}

let node t = t.node

let members t = Net.Asn.Set.elements t.members

let stats t = t.stats

let switch_graph t = t.switch_graph

let decisions_for t prefix =
  Option.value (Pm.find_opt prefix t.decisions) ~default:Net.Asn.Map.empty

let decision t ~member prefix = Net.Asn.Map.find_opt member (decisions_for t prefix)

let rib_routes t prefix = Option.value (Pm.find_opt prefix t.rib) ~default:[]

let known_prefixes t =
  let s = Net.Ipv4.Prefix_set.empty in
  let s = Pm.fold (fun p _ acc -> Net.Ipv4.Prefix_set.add p acc) t.rib s in
  let s = Pm.fold (fun p _ acc -> Net.Ipv4.Prefix_set.add p acc) t.originated s in
  let s = Pm.fold (fun p _ acc -> Net.Ipv4.Prefix_set.add p acc) t.decisions s in
  Net.Ipv4.Prefix_set.elements s

(* Rebuild-on-subscribe (rare) so notification (hot) is a plain array
   iteration — never the quadratic [subscribers @ [f]] pattern. *)
let subscribe_decision_change t f =
  t.on_decision_change <- Array.append t.on_decision_change [| f |]

(* --- Announcements ------------------------------------------------------ *)

(* Every session synced for a prefix counts as an announcement when its
   member's decision exports to it and as a withdrawal otherwise; the
   speaker drops what a session already holds. *)
let count_syncs t ~announced ~synced =
  t.stats.announces <- t.stats.announces + announced;
  t.stats.withdraws <- t.stats.withdraws + (synced - announced)

(* --- Recomputation ------------------------------------------------------ *)

let recompute_prefix t prefix =
  Engine.Sim.mark t.sim ~category:"ctrl.recompute" ~node:(Engine.Node.trace_node t.node)
    ~render:Net.Ipv4.packed_prefix_to_string (Net.Ipv4.prefix_to_packed prefix);
  let originators = Option.value (Pm.find_opt prefix t.originated) ~default:Net.Asn.Set.empty in
  let fp =
    {
      fp_routes = rib_routes t prefix;
      fp_originators = originators;
      fp_graph_version = Net.Graph.version t.switch_graph;
    }
  in
  match Pm.find_opt prefix t.fingerprints with
  | Some prev when fingerprint_equal prev fp ->
    (* Unchanged inputs: the deterministic pipeline would reproduce the
       previous decisions, flow rules and announcements verbatim. *)
    t.stats.recompute_skipped <- t.stats.recompute_skipped + 1
  | Some _ | None ->
  t.fingerprints <- Pm.add prefix fp t.fingerprints;
  t.stats.prefixes_recomputed <- t.stats.prefixes_recomputed + 1;
  let desired =
    As_graph.compute ~arena:t.arena ~members:t.members ~switch_graph:t.switch_graph
      ~routes:fp.fp_routes ~originators ()
  in
  (* Notify decision changes (convergence instrumentation). *)
  let previous = decisions_for t prefix in
  Net.Asn.Set.iter
    (fun member ->
      let old_d = Net.Asn.Map.find_opt member previous in
      let new_d = Net.Asn.Map.find_opt member desired in
      let changed =
        match (old_d, new_d) with
        | None, None -> false
        | Some a, Some b ->
          a.As_graph.hop <> b.As_graph.hop
          || a.As_graph.as_path <> b.As_graph.as_path
        | None, Some _ | Some _, None -> true
      in
      if changed then begin
        t.stats.decision_changes <- t.stats.decision_changes + 1;
        Array.iter (fun f -> f prefix member new_d) t.on_decision_change
      end)
    t.members;
  t.decisions <- Pm.add prefix desired t.decisions;
  (* Program the data plane. *)
  let installed = Option.value (Pm.find_opt prefix t.installed) ~default:Net.Asn.Map.empty in
  let changes, new_installed =
    Flow_compiler.diff ?hard_timeout:t.flow_hard_timeout ~prefix ~node_of_asn:t.node_of_asn
      ~members:(members t) ~installed ~desired ()
  in
  t.installed <- Pm.add prefix new_installed t.installed;
  List.iter
    (fun { Flow_compiler.member; mods } ->
      List.iter
        (fun m ->
          t.stats.flow_mods <- t.stats.flow_mods + 1;
          ignore (t.send_switch ~member m))
        mods)
    changes;
  (* Update the legacy world through the speaker. *)
  count_syncs t
    ~announced:(Speaker.sync t.speaker prefix desired)
    ~synced:(Speaker.session_count t.speaker)

(* Close the fallback-exit handshake: the batch that just ran reinstalled
   the flow state of every member awaiting resync, so release them from
   legacy fallback mode. *)
let flush_resyncing t =
  if not (Net.Asn.Set.is_empty t.resyncing) then begin
    let pending = t.resyncing in
    t.resyncing <- Net.Asn.Set.empty;
    Net.Asn.Set.iter
      (fun member -> ignore (t.send_switch ~member Sdn.Openflow.Resync_done))
      pending
  end

let recompute_batch t prefixes =
  t.stats.recompute_batches <- t.stats.recompute_batches + 1;
  (* One batching scope per recompute event: the speaker packs every
     (re)announcement of the batch into one UPDATE per session. *)
  Speaker.with_batch t.speaker (fun () -> List.iter (recompute_prefix t) prefixes);
  flush_resyncing t

let mark_dirty t prefix = Recompute.mark_dirty t.recompute prefix

(* --- Inputs ------------------------------------------------------------- *)

(* The prefix's routes stay sorted by (member, neighbor), one per pair:
   [route] replaces its pair's entry or is inserted in order. *)
let upsert_route t prefix (route : As_graph.exit_route) =
  let order (r : As_graph.exit_route) =
    let c = Net.Asn.compare r.As_graph.member route.As_graph.member in
    if c <> 0 then c else Net.Asn.compare r.As_graph.neighbor route.As_graph.neighbor
  in
  let rec insert = function
    | [] -> [ route ]
    | r :: rest as routes ->
      let c = order r in
      if c < 0 then r :: insert rest else route :: (if c = 0 then rest else routes)
  in
  t.rib <- Pm.add prefix (insert (rib_routes t prefix)) t.rib

let remove_route t prefix ~member ~neighbor =
  let routes =
    List.filter
      (fun (r : As_graph.exit_route) ->
        not
          (Net.Asn.equal r.As_graph.member member
          && Net.Asn.equal r.As_graph.neighbor neighbor))
      (rib_routes t prefix)
  in
  t.rib <- (if routes = [] then Pm.remove prefix t.rib else Pm.add prefix routes t.rib)

let on_external_update t s (u : Bgp.Message.update) =
  let member = Speaker.session_member s and neighbor = Speaker.session_neighbor s in
  let policy = Speaker.session_policy s in
  t.stats.updates_in <- t.stats.updates_in + 1;
  List.iter
    (fun prefix ->
      remove_route t prefix ~member ~neighbor;
      mark_dirty t prefix)
    u.Bgp.Message.withdrawn;
  List.iter
    (fun (prefix, attrs) ->
      if not (Bgp.Attrs.path_contains attrs member) then
        upsert_route t prefix
          { As_graph.member; neighbor; attrs = Bgp.Policy.import policy attrs; rel = policy }
      else remove_route t prefix ~member ~neighbor;
      mark_dirty t prefix)
    u.Bgp.Message.announced

let on_session_change t s ~up =
  if up then begin
    (* Full-table sync toward the new session from current decisions. *)
    let prefixes = known_prefixes t in
    let announced =
      Speaker.with_batch t.speaker (fun () ->
          Speaker.resync t.speaker s prefixes (decisions_for t))
    in
    count_syncs t ~announced ~synced:(List.length prefixes)
  end
  else begin
    let member = Speaker.session_member s and neighbor = Speaker.session_neighbor s in
    (* Flush everything learned over this peering. *)
    let affected =
      Pm.fold
        (fun prefix routes acc ->
          if
            List.exists
              (fun (r : As_graph.exit_route) ->
                Net.Asn.equal r.As_graph.member member
                && Net.Asn.equal r.As_graph.neighbor neighbor)
              routes
          then prefix :: acc
          else acc)
        t.rib []
    in
    List.iter
      (fun prefix ->
        remove_route t prefix ~member ~neighbor;
        mark_dirty t prefix)
      affected
  end

(* Port status from a member switch: a member-to-member port edits the
   switch graph (and re-splits sub-clusters); a member-to-external port
   bounces the BGP session riding on it. *)
let handle_port_status t ~switch_asn ~port ~up =
  match t.asn_of_node port with
  | None -> ()
  | Some peer_asn ->
    if Net.Asn.Set.mem peer_asn t.members then begin
      let u = Net.Asn.to_int switch_asn and v = Net.Asn.to_int peer_asn in
      (if up then Net.Graph.add_edge t.switch_graph u v
       else Net.Graph.remove_edge t.switch_graph u v);
      List.iter (fun p -> mark_dirty t p) (known_prefixes t)
    end
    else if up then Speaker.open_session t.speaker ~member:switch_asn ~neighbor:peer_asn
    else Speaker.session_down t.speaker ~member:switch_asn ~neighbor:peer_asn

let handle_openflow t msg =
  match msg with
  | Sdn.Openflow.Port_status { switch_asn; port; up } ->
    handle_port_status t ~switch_asn ~port ~up
  | Sdn.Openflow.Bgp_relay { member; neighbor; direction = Sdn.Openflow.To_speaker; payload } ->
    Speaker.handle_relay t.speaker ~member ~neighbor payload
  | Sdn.Openflow.Hello -> ()
  | Sdn.Openflow.Echo_request { switch_asn } ->
    (* Heartbeat probe from a member switch: answering proves the control
       plane is alive and keeps the switch out of fallback mode. *)
    ignore (t.send_switch ~member:switch_asn Sdn.Openflow.Echo_reply)
  | Sdn.Openflow.Flow_removed { switch_asn; rule } ->
    (* A timed-out rule is gone from the switch: forget it so the next
       recomputation reinstalls it. *)
    let prefix = rule.Sdn.Flow.match_prefix in
    (match Pm.find_opt prefix t.installed with
    | Some installed ->
      t.installed <- Pm.add prefix (Net.Asn.Map.remove switch_asn installed) t.installed;
      (* The rule must be reinstallable by the next recomputation even if
         its routing inputs are unchanged. *)
      t.fingerprints <- Pm.remove prefix t.fingerprints;
      (* Tables are kept complete: expiry alone (no routing input
         changed) must still trigger the reinstall. *)
      mark_dirty t prefix
    | None -> ())
  | Sdn.Openflow.Bgp_relay _ | Sdn.Openflow.Flow_mod _ | Sdn.Openflow.Echo_reply
  | Sdn.Openflow.Resync_done -> ()

(* --- Origination --------------------------------------------------------- *)

let originate t ~member prefix =
  if not (Net.Asn.Set.mem member t.members) then
    invalid_arg (Fmt.str "Controller.originate: %a not a member" Net.Asn.pp member);
  let current = Option.value (Pm.find_opt prefix t.originated) ~default:Net.Asn.Set.empty in
  t.originated <- Pm.add prefix (Net.Asn.Set.add member current) t.originated;
  mark_dirty t prefix

let withdraw_origin t ~member prefix =
  match Pm.find_opt prefix t.originated with
  | None -> ()
  | Some set ->
    let set = Net.Asn.Set.remove member set in
    t.originated <-
      (if Net.Asn.Set.is_empty set then Pm.remove prefix t.originated
       else Pm.add prefix set t.originated);
    mark_dirty t prefix

let flush_recompute t = Recompute.flush_now t.recompute

(* A member switch restarted with an empty flow table: forget what we
   think is installed there and mark everything dirty, so the next batch
   re-pushes its rules (announcements are deduplicated by the speaker). *)
let resync_member t member =
  if Net.Asn.Set.mem member t.members then begin
    t.installed <- Pm.map (Net.Asn.Map.remove member) t.installed;
    t.fingerprints <- Pm.empty;
    t.resyncing <- Net.Asn.Set.add member t.resyncing;
    match known_prefixes t with
    | [] -> flush_resyncing t (* nothing to reinstall: release immediately *)
    | prefixes -> List.iter (mark_dirty t) prefixes
  end

(* --- Lifecycle ----------------------------------------------------------- *)

(* Crash: the POX application dies.  Learned state (RIB, decisions,
   installed-rule shadow, fingerprints) is lost; [originated] is retained
   as configuration; the switch graph is retained because its physical
   edges still exist — a real controller would re-learn them from
   PORT_STATUS on reconnect. *)
let on_crashed t =
  t.rib <- Pm.empty;
  t.installed <- Pm.empty;
  t.decisions <- Pm.empty;
  t.fingerprints <- Pm.empty;
  t.resyncing <- Net.Asn.Set.empty;
  Recompute.reset t.recompute

(* Restart: re-run the pipeline for configured originations.  External
   routes reappear as the speaker's sessions re-establish and resync.
   Every member is owed a RESYNC_DONE (they degraded to fallback while we
   were dead); it goes out with the first recompute batch, or at once
   when there is nothing to reinstall. *)
let on_restarted t =
  t.resyncing <- t.members;
  if Pm.is_empty t.originated then flush_resyncing t
  else Pm.iter (fun prefix _ -> mark_dirty t prefix) t.originated

(* --- Telemetry ------------------------------------------------------------ *)

(* The registry series follow [stats]: a counter is monotonic, so each
   snapshot adds what its count gained since the last one. *)
let collect t =
  let m = Engine.Sim.metrics t.sim in
  let sync ~help name count =
    let c = Engine.Metrics.counter m ~help name in
    Engine.Metrics.Counter.add c (count - Engine.Metrics.Counter.value c)
  in
  let s = t.stats in
  sync ~help:"external BGP updates relayed to the controller" "controller_updates_in_total"
    s.updates_in;
  sync ~help:"batch recomputation runs" "controller_recompute_total" s.recompute_batches;
  sync ~help:"per-prefix recomputations" "controller_prefixes_recomputed_total"
    s.prefixes_recomputed;
  sync ~help:"dirty prefixes skipped because their inputs were unchanged"
    "controller_recompute_skipped_total" s.recompute_skipped;
  (* As_graph.compute runs exactly one Dijkstra per recomputed prefix. *)
  sync ~help:"shortest-path runs over the switch graph" "controller_dijkstra_runs_total"
    s.prefixes_recomputed;
  sync ~help:"FLOW_MODs pushed to switches" "controller_flow_mods_total" s.flow_mods;
  sync ~help:"announcements sent through the speaker" "controller_announce_total" s.announces;
  sync ~help:"withdrawals sent through the speaker" "controller_withdraw_total" s.withdraws;
  sync ~help:"per-member decision changes" "controller_decision_changes_total"
    s.decision_changes

(* --- Construction --------------------------------------------------------- *)

let create ?flow_hard_timeout ~sim ~config ~members:member_list ~speaker
    ~send_switch ~node_of_asn ~asn_of_node ~intra_links () =
  let members = Net.Asn.Set.of_list member_list in
  let switch_graph = Net.Graph.create () in
  List.iter (fun m -> Net.Graph.add_node switch_graph (Net.Asn.to_int m)) member_list;
  List.iter
    (fun (a, b) -> Net.Graph.add_edge switch_graph (Net.Asn.to_int a) (Net.Asn.to_int b))
    intra_links;
  (* The batch callback fires from the recompute timer, after [t] exists. *)
  let self = ref None in
  let recompute =
    Recompute.create ~sim ~delay:config.recompute_delay ~callback:(fun prefixes ->
        Option.iter (fun t -> recompute_batch t prefixes) !self)
  in
  let t =
    {
      sim;
      node = Engine.Node.create ~kind:"controller" sim ~name:"controller";
      config;
      flow_hard_timeout;
      members;
      speaker;
      send_switch;
      node_of_asn;
      asn_of_node;
      switch_graph;
      arena = As_graph.create_arena ();
      rib = Pm.empty;
      originated = Pm.empty;
      installed = Pm.empty;
      decisions = Pm.empty;
      fingerprints = Pm.empty;
      recompute;
      resyncing = Net.Asn.Set.empty;
      on_decision_change = [||];
      stats =
        {
          updates_in = 0;
          recompute_batches = 0;
          prefixes_recomputed = 0;
          recompute_skipped = 0;
          flow_mods = 0;
          announces = 0;
          withdraws = 0;
          decision_changes = 0;
        };
    }
  in
  self := Some t;
  Engine.Metrics.on_collect (Engine.Sim.metrics sim) (fun () -> collect t);
  Speaker.attach_controller speaker
    ~on_update:(fun s u -> on_external_update t s u)
    ~on_session:(fun s ~up -> on_session_change t s ~up);
  Engine.Node.on_crash t.node (fun () -> on_crashed t);
  Engine.Node.on_start t.node (fun ~first -> if not first then on_restarted t);
  Engine.Node.start t.node;
  t
