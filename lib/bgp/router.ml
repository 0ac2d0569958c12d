(* A BGP speaker emulating one AS's border router (the framework isolates
   inter- from intra-domain routing by emulating each AS as one device).

   Faithful protocol mechanics that matter for convergence dynamics:
   - Adj-RIB-In / Loc-RIB / Adj-RIB-Out separation with implicit withdraw;
   - the standard decision process (Decision.compare);
   - per-peer MRAI with Quagga-style jitter — the pacing that produces the
     classic path-exploration rounds on withdrawal;
   - AS-path loop rejection on import and suppression on export;
   - serialized update processing: a single-threaded bgpd works through
     its input queue, so each update's processing delay pushes a
     [busy_until] watermark and later updates queue behind it. *)

module Tbl = Net.Ipv4.Prefix_table

type stats = {
  mutable msgs_in : int;
  mutable msgs_out : int;
  mutable prefixes_in : int;
  mutable prefixes_out : int;
  mutable decision_runs : int;
  mutable best_changes : int;
}

(* Registry handles, created once per router (labels [node=<asn>]). *)
type telemetry = {
  updates_sent : Engine.Metrics.Counter.t;
  updates_received : Engine.Metrics.Counter.t;
  withdrawals_sent : Engine.Metrics.Counter.t;
  withdrawals_received : Engine.Metrics.Counter.t;
  decision_runs_c : Engine.Metrics.Counter.t;
  best_changes_c : Engine.Metrics.Counter.t;
}

type peer = {
  peer_asn : Net.Asn.t;
  peer_node : int;
  policy : Policy.t;
  session : Session.t;
  mutable retry_attempt : int; (* reconnect backoff position *)
  mrai : Mrai.t;
  (* [bgp_session_state], registered by the router's collector on the
     first snapshot after the peer was added. *)
  mutable state_gauge : Engine.Metrics.Gauge.t option;
}

type t = {
  sim : Engine.Sim.t;
  node : Engine.Node.t;
  rng : Engine.Rng.t;
  asn : Net.Asn.t;
  node_id : int;
  router_id : Net.Ipv4.addr;
  config : Config.t;
  ep : Session.endpoint;
  send_raw : dst:int -> Message.t -> bool;
  mutable peers : peer Net.Asn.Map.t;
  peer_of_node : (int, peer) Hashtbl.t;
  adj_in : Rib.Adj_in.t;
  loc : Rib.Loc.t;
  adj_out : Rib.Adj_out.t;
  originated : Attrs.t Tbl.t;
  mutable busy_until : Engine.Time.t;
  damping : Damping.t option;
  stats : stats;
  tm : telemetry;
  mutable on_best_change : (Net.Ipv4.prefix -> Route.t option -> unit) array;
  (* Update batching: every entry point that can enqueue outbound changes
     runs inside a batch scope; peers whose MRAI state went dirty during
     the scope are flushed once, in ascending ASN order, when the
     outermost scope closes — one packed UPDATE per peer per event. *)
  mutable batch_depth : int;
  mutable batch_dirty : peer list;
}

let name t = Net.Asn.to_string t.asn

(* [create] is completed at the bottom of this file (the crash/restart
   hooks need the session machinery defined in between). *)
let create_unhooked ?damping ~sim ~asn ~node_id ~router_id ~config ~send () =
  let m = Engine.Sim.metrics sim in
  let labels = [ ("node", Net.Asn.to_string asn) ] in
  let counter ?help name = Engine.Metrics.counter m ?help ~labels name in
  let tm =
    {
      updates_sent =
        counter ~help:"prefixes announced in sent UPDATEs" "bgp_updates_sent_total";
      updates_received =
        counter ~help:"prefixes announced in received UPDATEs" "bgp_updates_received_total";
      withdrawals_sent =
        counter ~help:"prefixes withdrawn in sent UPDATEs" "bgp_withdrawals_sent_total";
      withdrawals_received =
        counter ~help:"prefixes withdrawn in received UPDATEs"
          "bgp_withdrawals_received_total";
      decision_runs_c = counter ~help:"decision process invocations" "bgp_decision_runs_total";
      best_changes_c = counter ~help:"Loc-RIB best-path changes" "bgp_best_changes_total";
    }
  in
  (* The split from the root stream happens exactly where it always did,
     keeping every later subsystem's draws byte-identical. *)
  let rng = Engine.Rng.split (Engine.Sim.rng sim) in
  let node = Engine.Node.create ~kind:"router" sim ~name:(Net.Asn.to_string asn) in
  let ep = Session.endpoint node ~rng ~category:"bgp.liveness" config.Config.keepalives in
  let t =
    {
      damping = Option.map Damping.create damping;
      sim;
      node;
      rng;
      asn;
      node_id;
      router_id;
      config;
      ep;
      send_raw = send;
      peers = Net.Asn.Map.empty;
      peer_of_node = Hashtbl.create 8;
      adj_in = Rib.Adj_in.create ();
      loc = Rib.Loc.create ();
      adj_out = Rib.Adj_out.create ();
      originated = Tbl.create ();
      busy_until = Engine.Time.zero;
      stats =
        {
          msgs_in = 0;
          msgs_out = 0;
          prefixes_in = 0;
          prefixes_out = 0;
          decision_runs = 0;
          best_changes = 0;
        };
      tm;
      on_best_change = [||];
      batch_depth = 0;
      batch_dirty = [];
    }
  in
  let loc_gauge =
    Engine.Metrics.gauge m ~help:"routes in the Loc-RIB" ~labels "bgp_loc_rib_routes"
  in
  let adj_gauge =
    Engine.Metrics.gauge m ~help:"routes in the Adj-RIB-In" ~labels "bgp_adj_in_routes"
  in
  let state_gauge peer =
    match peer.state_gauge with
    | Some g -> g
    | None ->
      let g =
        Engine.Metrics.gauge m ~help:"BGP session FSM state (0=idle, 1=connect, 2=established)"
          ~labels:[ ("node", Net.Asn.to_string asn); ("peer", Net.Asn.to_string peer.peer_asn) ]
          "bgp_session_state"
      in
      peer.state_gauge <- Some g;
      g
  in
  (* One collector per router: RIB sizes and every peer's session state,
     sampled at scrape time. *)
  Engine.Metrics.on_collect m (fun () ->
      Engine.Metrics.Gauge.set loc_gauge (float_of_int (Rib.Loc.size t.loc));
      Engine.Metrics.Gauge.set adj_gauge (float_of_int (Rib.Adj_in.size t.adj_in));
      Net.Asn.Map.iter
        (fun _ peer ->
          Engine.Metrics.Gauge.set (state_gauge peer)
            (float_of_int (Session.to_int (Session.state peer.session))))
        t.peers);
  t

let asn t = t.asn

let node t = t.node

let node_id t = t.node_id

let router_id t = t.router_id

let stats t = t.stats

(* Rebuild-on-subscribe (rare) so notification (hot, every best-path
   change) is a plain array iteration — never the quadratic
   [subscribers @ [f]] append. *)
let subscribe_best_change t f = t.on_best_change <- Array.append t.on_best_change [| f |]

let find_peer t peer_asn = Net.Asn.Map.find_opt peer_asn t.peers

let peer_asns t = List.map fst (Net.Asn.Map.bindings t.peers)

let peer_established t peer_asn =
  match find_peer t peer_asn with Some p -> Session.is_established p.session | None -> false

let session_state t peer_asn =
  match find_peer t peer_asn with None -> Session.Idle | Some p -> Session.state p.session

let send_message t dst msg =
  let sent = t.send_raw ~dst msg in
  if sent then begin
    t.stats.msgs_out <- t.stats.msgs_out + 1;
    match msg with
    | Message.Update u ->
      t.stats.prefixes_out <- t.stats.prefixes_out + Message.update_size u;
      Engine.Metrics.Counter.add t.tm.updates_sent (List.length u.Message.announced);
      Engine.Metrics.Counter.add t.tm.withdrawals_sent (List.length u.Message.withdrawn)
    | Message.Open _ | Message.Keepalive | Message.Notification _ -> ()
  end;
  sent

let flush_batch t =
  let dirty = t.batch_dirty in
  t.batch_dirty <- [];
  let dirty =
    List.sort_uniq (fun a b -> Net.Asn.compare a.peer_asn b.peer_asn) dirty
  in
  List.iter (fun p -> Mrai.flush_event p.mrai) dirty

let close_batch t =
  t.batch_depth <- t.batch_depth - 1;
  if t.batch_depth = 0 then flush_batch t

(* Runs twice per delivered UPDATE, so a direct handler rather than a
   closure-allocating wrapper.  The scope closes (and flushes) on both
   paths, and an exception leaves with its own backtrace. *)
let with_batch t f =
  t.batch_depth <- t.batch_depth + 1;
  match f () with
  | v ->
    close_batch t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_batch t;
    Printexc.raise_with_backtrace e bt

(* --- Decision process and export ------------------------------------- *)

let local_route t prefix =
  match Tbl.find prefix t.originated with
  | None -> None
  | Some attrs ->
    Some (Route.make ~prefix ~attrs ~source:Route.Local ~learned_at:Engine.Time.zero)

let candidates t prefix =
  let learned = Rib.Adj_in.candidates t.adj_in prefix in
  (* Damping excludes suppressed (peer, prefix) routes from selection;
     they remain in Adj-RIB-In and return once their penalty decays. *)
  let learned =
    match t.damping with
    | None -> learned
    | Some damping ->
      let now = Engine.Sim.now t.sim in
      List.filter
        (fun r ->
          match Route.from_peer r with
          | Some peer -> not (Damping.is_suppressed damping ~peer ~prefix ~now)
          | None -> true)
        learned
  in
  match local_route t prefix with Some r -> r :: learned | None -> learned

let damping_state t = t.damping

let best t prefix = Rib.Loc.find t.loc prefix

let loc_entries t = Rib.Loc.entries t.loc

let originated_prefixes t = Tbl.keys t.originated

let route_equal a b =
  (match (Route.source a, Route.source b) with
  | Route.Local, Route.Local -> true
  | Route.Ebgp p, Route.Ebgp q -> Net.Asn.equal p q
  | Route.Local, Route.Ebgp _ | Route.Ebgp _, Route.Local -> false)
  && Attrs.wire_equal (Route.attrs a) (Route.attrs b)
  && (Route.attrs a).Attrs.local_pref = (Route.attrs b).Attrs.local_pref

let provenance t (route : Route.t) =
  match Route.source route with
  | Route.Local -> Policy.Originated
  | Route.Ebgp q -> (
    match find_peer t q with
    | Some p -> Policy.From (Policy.relationship p.policy)
    | None -> Policy.From Policy.Unrestricted)

(* What an advertisement of one best route shares across peers, computed
   once per best change: its origin peer, its provenance and the exported
   attrs for peers without extra prepends (interned on first use, so a
   route no peer receives creates no attrs). *)
type export = {
  route : Route.t;
  from : Net.Asn.t option;
  provenance : Policy.route_provenance;
  mutable plain : Attrs.t option;
}

let export_of t route =
  { route; from = Route.from_peer route; provenance = provenance t route; plain = None }

let exported_attrs t ex peer =
  let k = Policy.export_prepend peer.policy in
  match ex.plain with
  | Some a when k = 0 -> a
  | Some _ | None ->
    let a =
      Attrs.exported (Route.attrs ex.route) ~asn:t.asn ~times:(1 + k) ~next_hop:t.router_id
    in
    if k = 0 then ex.plain <- Some a;
    a

(* What (if anything) the current best route looks like when advertised to
   [peer]. *)
let desired_export t prefix ex peer =
  match ex with
  | None -> None
  | Some { from = Some q; _ } when Net.Asn.equal q peer.peer_asn -> None
  | Some ex when Attrs.path_contains (Route.attrs ex.route) peer.peer_asn -> None
  | Some ex ->
    Policy.export peer.policy ~provenance:ex.provenance ~prefix (exported_attrs t ex peer)

let export_to_peer t prefix ex peer =
  if Session.is_established peer.session then begin
    let current = Rib.Adj_out.find t.adj_out ~peer:peer.peer_asn prefix in
    match (desired_export t prefix ex peer, current) with
    | Some a, Some b when Attrs.wire_equal a b -> ()
    | Some a, (Some _ | None) ->
      Rib.Adj_out.set t.adj_out ~peer:peer.peer_asn prefix a;
      Mrai.enqueue_announce peer.mrai prefix a
    | None, Some _ ->
      Rib.Adj_out.remove t.adj_out ~peer:peer.peer_asn prefix;
      Mrai.enqueue_withdraw peer.mrai prefix
    | None, None -> ()
  end

let export_all_peers t prefix best =
  let ex = Option.map (export_of t) best in
  Net.Asn.Map.iter (fun _ peer -> export_to_peer t prefix ex peer) t.peers

let run_decision t prefix =
  t.stats.decision_runs <- t.stats.decision_runs + 1;
  Engine.Metrics.Counter.inc t.tm.decision_runs_c;
  let best = Decision.select (candidates t prefix) in
  let old = Rib.Loc.find t.loc prefix in
  let changed =
    match (old, best) with
    | None, None -> false
    | Some a, Some b -> not (route_equal a b)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    (match best with
    | Some r -> Rib.Loc.set t.loc r
    | None -> Rib.Loc.remove t.loc prefix);
    t.stats.best_changes <- t.stats.best_changes + 1;
    Engine.Metrics.Counter.inc t.tm.best_changes_c;
    Array.iter (fun f -> f prefix best) t.on_best_change;
    export_all_peers t prefix best
  end

let run_decisions t prefixes =
  let seen = Tbl.create () in
  List.iter
    (fun p ->
      if not (Tbl.mem p seen) then begin
        Tbl.set p () seen;
        run_decision t p
      end)
    prefixes

(* --- Origination ------------------------------------------------------ *)

let originate ?(med = 0) ?(origin = Attrs.Igp) ?(communities = Community.Set.empty) t prefix =
  let attrs =
    Attrs.make ~as_path:[] ~med ~origin ~communities ~next_hop:t.router_id ()
  in
  Tbl.set prefix attrs t.originated;
  with_batch t (fun () -> run_decision t prefix)

let withdraw_origin t prefix =
  if Tbl.mem prefix t.originated then begin
    Tbl.remove prefix t.originated;
    with_batch t (fun () -> run_decision t prefix)
  end

(* --- Sessions ---------------------------------------------------------- *)

let sync_peer t peer =
  List.iter (fun (prefix, route) -> export_to_peer t prefix (Some (export_of t route)) peer)
    (Rib.Loc.entries t.loc)

let session_down t peer_asn =
  match find_peer t peer_asn with
  | None -> ()
  | Some peer ->
    if Session.teardown peer.session then begin
      Mrai.reset peer.mrai;
      let dropped_in = Rib.Adj_in.drop_peer t.adj_in ~peer:peer_asn in
      ignore (Rib.Adj_out.drop_peer t.adj_out ~peer:peer_asn);
      with_batch t (fun () -> run_decisions t dropped_in)
    end

(* Deterministic exponential-backoff retry of an unanswered OPEN.  The
   chain stops when the session establishes, when the session-down path
   resets it (link reported down), or when the attempt budget is
   exhausted (the peer's own restart OPEN can still revive the session). *)
let rec schedule_retry t peer =
  match t.config.Config.reconnect with
  | None -> ()
  | Some backoff ->
    let attempt = peer.retry_attempt in
    if attempt < backoff.Session.max_attempts then begin
      let delay = Session.delay backoff t.rng ~attempt in
      Engine.Node.schedule_after ~category:"bgp.reconnect" t.node delay (fun () ->
          if Session.state peer.session = Session.Connect then begin
            peer.retry_attempt <- attempt + 1;
            Session.send_open peer.session;
            schedule_retry t peer
          end)
    end

let open_session t peer_asn =
  match find_peer t peer_asn with
  | None -> invalid_arg (Fmt.str "Router.open_session: unknown peer %a" Net.Asn.pp peer_asn)
  | Some peer ->
    if Session.connect peer.session then begin
      peer.retry_attempt <- 0;
      schedule_retry t peer
    end

(* After the session's NOTIFICATION: the neighbor may be rebooting rather
   than gone, so retry the session on the backoff schedule (an eventual
   NOTIFICATION+OPEN from the peer's own restart path also re-establishes,
   whichever comes first). *)
let hold_expired t peer_asn =
  session_down t peer_asn;
  match t.config.Config.reconnect with
  | None -> ()
  | Some backoff ->
    let delay = Session.delay backoff t.rng ~attempt:0 in
    Engine.Node.schedule_after ~category:"bgp.reconnect" t.node delay (fun () ->
        open_session t peer_asn)

let add_peer t ~peer_asn ~peer_node ~policy =
  if Net.Asn.Map.mem peer_asn t.peers then
    invalid_arg (Fmt.str "Router.add_peer: duplicate %a" Net.Asn.pp peer_asn);
  let session =
    Session.create t.ep ~asn:t.asn ~router_id:t.router_id ~send:(send_message t peer_node)
      ~on_expired:(fun () -> hold_expired t peer_asn)
  in
  let send_update update =
    (* Checked at send time: the peer may have gone down since the
       update was queued. *)
    if Session.is_established session then
      ignore (send_message t peer_node (Message.Update update))
  in
  let mrai =
    Mrai.create t.sim ~rng:(Engine.Rng.split t.rng) ~config:t.config ~send:send_update
  in
  let peer =
    { peer_asn; peer_node; policy; session; retry_attempt = 0; mrai; state_gauge = None }
  in
  Mrai.set_on_dirty mrai (fun () ->
      if t.batch_depth > 0 then t.batch_dirty <- peer :: t.batch_dirty
      else Mrai.flush_event mrai);
  t.peers <- Net.Asn.Map.add peer_asn peer t.peers;
  Hashtbl.replace t.peer_of_node peer_node peer

let start t = List.iter (fun (_, p) -> open_session t p.peer_asn) (Net.Asn.Map.bindings t.peers)

(* --- Inbound processing ------------------------------------------------ *)

(* Flap bookkeeping: penalize the (peer, prefix) pair and, when it gets
   suppressed, schedule a re-decision at its reuse time. *)
let note_flap t peer_asn prefix event =
  match t.damping with
  | None -> ()
  | Some damping -> (
    let now = Engine.Sim.now t.sim in
    match Damping.record damping ~peer:peer_asn ~prefix ~now event with
    | `Ok -> ()
    | `Suppressed_until reuse_at ->
      (* a hair past the reuse instant so the decayed penalty is safely
         at-or-below the threshold despite floating-point rounding *)
      let recheck = Engine.Time.add reuse_at (Engine.Time.ms 10) in
      Engine.Node.schedule_at ~category:"bgp.damping" t.node recheck (fun () ->
          with_batch t (fun () -> run_decision t prefix)))

let process_update t peer (u : Message.update) =
  with_batch t @@ fun () ->
  (* Stale when the session flapped since the update arrived. *)
  if Session.is_established peer.session then begin
    let peer_asn = peer.peer_asn in
    let affected = ref [] in
    List.iter
      (fun prefix ->
        if Option.is_some (Rib.Adj_in.find t.adj_in ~peer:peer_asn prefix) then begin
          Rib.Adj_in.remove t.adj_in ~peer:peer_asn prefix;
          note_flap t peer_asn prefix Damping.Withdrawal;
          affected := prefix :: !affected
        end)
      u.Message.withdrawn;
    List.iter
      (fun (prefix, attrs) ->
        match Policy.import peer.policy ~me:t.asn ~prefix attrs with
        | Some attrs ->
          (match t.damping with
          | None -> ()
          | Some damping -> (
            match Rib.Adj_in.find t.adj_in ~peer:peer_asn prefix with
            | Some old ->
              if not (Attrs.wire_equal (Route.attrs old) attrs) then
                note_flap t peer_asn prefix Damping.Attribute_change
            | None ->
              (* Re-advertisement after a withdrawal leaves a decaying
                 penalty behind; a first-ever announcement does not. *)
              if
                Damping.current_penalty damping ~peer:peer_asn ~prefix
                  ~now:(Engine.Sim.now t.sim)
                > 0.0
              then note_flap t peer_asn prefix Damping.Readvertisement));
          let route =
            Route.make ~prefix ~attrs ~source:(Route.Ebgp peer_asn)
              ~learned_at:(Engine.Sim.now t.sim)
          in
          Rib.Adj_in.set t.adj_in route;
          affected := prefix :: !affected
        | None ->
          (* Policy rejection implicitly withdraws any previous route. *)
          if Option.is_some (Rib.Adj_in.find t.adj_in ~peer:peer_asn prefix) then begin
            Rib.Adj_in.remove t.adj_in ~peer:peer_asn prefix;
            affected := prefix :: !affected
          end)
      u.Message.announced;
    run_decisions t (List.rev !affected)
  end

let handle_message t ~from msg =
  with_batch t @@ fun () ->
  match Hashtbl.find_opt t.peer_of_node from with
  | None -> ()
  | Some peer -> (
    Session.touch peer.session;
    match msg with
    | Message.Open { hold_time; _ } ->
      if Session.receive_open peer.session ~hold_time then begin
        peer.retry_attempt <- 0;
        sync_peer t peer
      end
    | Message.Keepalive -> ()
    | Message.Notification _ -> session_down t peer.peer_asn
    | Message.Update u ->
      t.stats.msgs_in <- t.stats.msgs_in + 1;
      t.stats.prefixes_in <- t.stats.prefixes_in + Message.update_size u;
      Engine.Sim.mark t.sim ~category:"bgp.update" ~node:(Engine.Node.name t.node)
        ~render:Net.Asn.int_to_string (Net.Asn.to_int peer.peer_asn);
      Engine.Metrics.Counter.add t.tm.updates_received (List.length u.Message.announced);
      Engine.Metrics.Counter.add t.tm.withdrawals_received (List.length u.Message.withdrawn);
      (* Serialized processing behind a busy watermark: emulates a
         single-threaded bgpd working through its input queue. *)
      let now = Engine.Sim.now t.sim in
      let start = Engine.Time.max now t.busy_until in
      let finish = Engine.Time.add start (Config.processing_delay t.config t.rng) in
      t.busy_until <- finish;
      (* A crash bumps the node epoch, which voids the pending events. *)
      Engine.Node.schedule_at ~category:"bgp.process" t.node finish (fun () ->
          process_update t peer u))

(* --- Lifecycle ---------------------------------------------------------- *)

(* Crash: lose all volatile bgpd state.  [originated] survives — it is the
   router's configuration, not learned state.  Owned timers and scheduled
   events are voided by the node runtime itself. *)
let on_crashed t =
  t.busy_until <- Engine.Time.zero;
  Net.Asn.Map.iter
    (fun _ peer ->
      Session.crash peer.session;
      peer.retry_attempt <- 0;
      Mrai.reset peer.mrai)
    t.peers;
  Rib.Adj_in.clear t.adj_in;
  Rib.Loc.clear t.loc;
  Rib.Adj_out.clear t.adj_out

(* Restart: re-originate configured prefixes, then resync every session.
   The NOTIFICATION makes the live peer run its session-down path (it
   flushes routes learned from us and stops treating the old session as
   open), so the OPEN that follows is answered like a cold start. *)
let on_restarted t =
  with_batch t (fun () -> run_decisions t (Tbl.keys t.originated));
  Net.Asn.Map.iter
    (fun _ peer ->
      ignore (send_message t peer.peer_node (Message.Notification "peer restarted"));
      open_session t peer.peer_asn)
    t.peers

let create ?damping ~sim ~asn ~node_id ~router_id ~config ~send () =
  let t = create_unhooked ?damping ~sim ~asn ~node_id ~router_id ~config ~send () in
  Engine.Node.on_crash t.node (fun () -> on_crashed t);
  Engine.Node.on_start t.node (fun ~first -> if not first then on_restarted t);
  Engine.Node.start t.node;
  t

(* Test/diagnostic accessors. *)

let adj_in_find t ~peer prefix = Rib.Adj_in.find t.adj_in ~peer prefix

let adj_out_find t ~peer prefix = Rib.Adj_out.find t.adj_out ~peer prefix

let adj_in_size t = Rib.Adj_in.size t.adj_in

let loc_size t = Rib.Loc.size t.loc
