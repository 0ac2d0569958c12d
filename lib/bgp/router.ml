(* A BGP speaker emulating one AS's border router (the framework isolates
   inter- from intra-domain routing by emulating each AS as one device).

   Faithful protocol mechanics that matter for convergence dynamics:
   - Adj-RIB-In / Loc-RIB / Adj-RIB-Out separation with implicit withdraw
     (a peer's Adj-RIB-Out is derived: its queued changes, else what the
     export policy gives for the Loc-RIB best);
   - the standard decision process (Decision.compare);
   - per-peer MRAI with Quagga-style jitter — the pacing that produces the
     classic path-exploration rounds on withdrawal;
   - AS-path loop rejection on import and suppression on export, and the
     first-AS check on import (a route's neighbor is its path's head);
   - batched processing: UPDATEs wait in an inbox, and the one
     [bgp.process] event of a busy period (a processing delay after the
     first) applies them in arrival order, then decides each prefix once. *)

module Tbl = Net.Ipv4.Prefix_table

type stats = {
  mutable msgs_in : int;
  mutable msgs_out : int;
  mutable prefixes_in : int;
  mutable prefixes_out : int;
  mutable withdrawals_in : int;
  mutable withdrawals_out : int;
  mutable decision_runs : int;
  mutable best_changes : int;
}

(* The router's registry series, registered by its collector on the
   first snapshot and brought up to date from [stats] on every one, so a
   router that is never scraped registers nothing. *)
type series = {
  updates_sent : Engine.Metrics.Counter.t;
  updates_received : Engine.Metrics.Counter.t;
  withdrawals_sent : Engine.Metrics.Counter.t;
  withdrawals_received : Engine.Metrics.Counter.t;
  decision_runs_c : Engine.Metrics.Counter.t;
  best_changes_c : Engine.Metrics.Counter.t;
  hold_expirations : Engine.Metrics.Counter.t;
  loc_gauge : Engine.Metrics.Gauge.t;
  adj_gauge : Engine.Metrics.Gauge.t;
}

(* A route learned from the peer is the imported attrs alone: the
   peer's ASN heads its path, so the peer record holds no per-route
   source value. *)
type peer = {
  peer_asn : Net.Asn.t;
  peer_node : int; (* also the peer's session key *)
  policy : Policy.t;
  session : Session.t;
  mutable retry_attempt : int; (* reconnect backoff position *)
  mrai : Mrai.t; (* the changes queued for the peer *)
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
  (* Peers are appended to [added] and merged into the two sorted arrays
     by the first read after, so configuring d peers sorts once. *)
  mutable peers : peer array; (* ascending ASN: export and flush walk it *)
  mutable by_node : peer array; (* ascending node id: inbound lookup *)
  mutable added : peer list; (* not yet merged, newest first *)
  rib : Rib.t; (* the Adj-RIB-In and the Loc-RIB *)
  originated : Route.t Tbl.t; (* the local routes *)
  mutable inbox : (peer * Message.update) list; (* newest first *)
  stats : stats;
  mutable series : series option;
  mutable on_best_change : (Net.Ipv4.prefix -> Route.t option -> unit) array;
  (* Update batching: every entry point that can enqueue outbound changes
     runs inside a scope of this batch, which every peer's table shares;
     peers whose queue went dirty during the scope are flushed once, in
     ascending ASN order, when the outermost scope closes — one packed
     UPDATE per peer per event. *)
  batch : Mrai.batch;
}

let name t = Net.Asn.to_string t.asn

let asn t = t.asn

let node t = t.node

let node_id t = t.node_id

let stats t = t.stats

(* Rebuild-on-subscribe (rare) so notification (hot, every best-path
   change) is a plain array iteration — never the quadratic
   [subscribers @ [f]] append. *)
let subscribe_best_change t f = t.on_best_change <- Array.append t.on_best_change [| f |]

let merge_added t =
  let peers = Array.append t.peers (Array.of_list t.added) in
  t.added <- [];
  Array.sort (fun p q -> Net.Asn.compare p.peer_asn q.peer_asn) peers;
  for i = 1 to Array.length peers - 1 do
    if Net.Asn.equal peers.(i - 1).peer_asn peers.(i).peer_asn then
      invalid_arg (Fmt.str "Router.add_peer: duplicate %a" Net.Asn.pp peers.(i).peer_asn)
  done;
  let by_node = Array.copy peers in
  Array.sort (fun p q -> Int.compare p.peer_node q.peer_node) by_node;
  t.peers <- peers;
  t.by_node <- by_node

let peers t =
  if t.added <> [] then merge_added t;
  t.peers

(* The index of the first peer in [peers.(lo..hi-1)] whose ASN
   ({!Net.Asn.to_int}) is not below [asn], or [hi]. *)
let rec search peers asn lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Net.Asn.to_int peers.(mid).peer_asn < asn then search peers asn (mid + 1) hi
    else search peers asn lo mid

let find_peer t peer_asn =
  let peers = peers t in
  let i = search peers (Net.Asn.to_int peer_asn) 0 (Array.length peers) in
  if i < Array.length peers && Net.Asn.equal peers.(i).peer_asn peer_asn then Some peers.(i)
  else None

(* The index in [by_node.(lo..hi-1)] of the peer behind fabric node
   [node], or -1. *)
let rec search_node by_node node lo hi =
  if lo = hi then -1
  else
    let mid = (lo + hi) / 2 in
    let n = by_node.(mid).peer_node in
    if n = node then mid
    else if n < node then search_node by_node node (mid + 1) hi
    else search_node by_node node lo mid

(* [f t peer] for the peer behind fabric node [node], if any: a lookup
   that allocates nothing on the inbound path. *)
let with_peer_of_node t node f x =
  ignore (peers t);
  match search_node t.by_node node 0 (Array.length t.by_node) with
  | -1 -> ()
  | i -> f t t.by_node.(i) x

let peer_asns t = Array.to_list (Array.map (fun p -> p.peer_asn) (peers t))

let peer_established t peer_asn =
  match find_peer t peer_asn with Some p -> Session.is_established p.session | None -> false

let session_state t peer_asn =
  match find_peer t peer_asn with None -> Session.Idle | Some p -> Session.state p.session

let count_sent stats send_raw dst msg =
  let sent = send_raw ~dst msg in
  if sent then begin
    stats.msgs_out <- stats.msgs_out + 1;
    match msg with
    | Message.Update u ->
      let withdrawn = List.length u.Message.withdrawn in
      stats.prefixes_out <- stats.prefixes_out + List.length u.Message.announced + withdrawn;
      stats.withdrawals_out <- stats.withdrawals_out + withdrawn
    | Message.Open _ | Message.Keepalive | Message.Notification _ -> ()
  end;
  sent

let send_message t dst msg = count_sent t.stats t.send_raw dst msg

let close_batch t =
  if Mrai.leave t.batch then begin
    let peers = peers t in
    for i = 0 to Array.length peers - 1 do
      let mrai = peers.(i).mrai in
      if Mrai.is_dirty mrai then Mrai.flush_event mrai
    done
  end

(* [f t x] inside a batch scope.  Callers pass a top-level [f], so
   opening a scope allocates no closure.  The scope closes (and flushes)
   on both paths, and an exception leaves with its own backtrace. *)
let with_batch t f x =
  Mrai.enter t.batch;
  match f t x with
  | () -> close_batch t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_batch t;
    Printexc.raise_with_backtrace e bt

(* --- Decision process and export ------------------------------------- *)

let candidates t prefix =
  let learned = Rib.Adj_in.candidates t.rib prefix in
  match Tbl.find prefix t.originated with Some r -> r :: learned | None -> learned

let best t prefix = Rib.Loc.find t.rib prefix

let loc_entries t = Rib.Loc.entries t.rib

let iter_best t f = Rib.Loc.iter t.rib f

(* The provenance of a route, as one of [Policy]'s shared values. *)
let provenance t (route : Route.t) =
  match Route.neighbor route with
  | -1 -> Policy.Originated
  | q ->
    let peers = peers t in
    let i = search peers q 0 (Array.length peers) in
    Policy.learned_from
      (if i < Array.length peers && Net.Asn.to_int peers.(i).peer_asn = q then
         peers.(i).policy
       else Policy.Unrestricted)

(* Whether [peer] may be told of [route]: not its own route back (whose
   path starts with the peer's ASN), no loop in its path, and its export
   policy agrees. *)
let may_export peer (route : Route.t) provenance =
  (not (Attrs.path_contains route peer.peer_asn))
  && Policy.export_allowed ~to_rel:peer.policy ~provenance

let exported t attrs = Attrs.exported attrs ~asn:t.asn ~next_hop:t.router_id

(* Whether [peer] is sent anything for the best [route], of [provenance]
   ([route] None: no best). *)
let exports peer route provenance =
  match route with Some r -> may_export peer r provenance | None -> false

(* The best changed from [old] to [best].  An established peer's view
   (its queued change for the prefix, else what it was sent) is what
   [old] exports to it, so it needs a change only when the two bests
   export differently: one of them is withheld from it, or their paths,
   MEDs or ORIGINs differ.  The exported attrs are built once, for the
   first peer that needs them: [plain] holds the route's own attrs until
   then, which no exported value can be (export prepends our ASN and
   sets our next hop). *)
let export_all_peers t prefix old best =
  let peers = peers t in
  let old_prov = match old with Some o -> provenance t o | None -> Policy.Originated in
  match best with
  | None ->
    for i = 0 to Array.length peers - 1 do
      let peer = peers.(i) in
      if Session.is_established peer.session && exports peer old old_prov then
        Mrai.withdraw peer.mrai prefix
    done
  | Some route ->
    let provenance = provenance t route in
    let same = match old with Some o -> Attrs.export_equal o route | None -> false in
    let plain = ref route in
    for i = 0 to Array.length peers - 1 do
      let peer = peers.(i) in
      if Session.is_established peer.session then
        if may_export peer route provenance then begin
          if not (same && exports peer old old_prov) then begin
            if !plain == route then plain := exported t route;
            Mrai.announce peer.mrai prefix !plain
          end
        end
        else if exports peer old old_prov then Mrai.withdraw peer.mrai prefix
    done

let best_changed t prefix old best =
  t.stats.best_changes <- t.stats.best_changes + 1;
  let subscribers = t.on_best_change in
  for i = 0 to Array.length subscribers - 1 do
    subscribers.(i) prefix best
  done;
  export_all_peers t prefix old best

(* The decision process: [Rib.Loc.decide] weighs the prefix's learned
   routes and its local route, if any, in one probe of the RIB. *)
let run_decision t prefix =
  t.stats.decision_runs <- t.stats.decision_runs + 1;
  match Rib.Loc.decide t.rib prefix ~local:(Tbl.find prefix t.originated) with
  | Rib.Loc.Kept -> ()
  | Rib.Loc.Changed { old; best } -> best_changed t prefix old best

(* Session-down and restart lists are duplicate-free by construction. *)
let run_decisions t prefixes = List.iter (run_decision t) prefixes

(* --- Origination ------------------------------------------------------ *)

(* A local route is the one route with an empty path. *)
let originate t prefix =
  Tbl.set prefix (Attrs.make ~next_hop:t.router_id ()) t.originated;
  with_batch t run_decision prefix

let withdraw_origin t prefix =
  match Tbl.slot t.originated (Net.Ipv4.prefix_to_packed prefix) with
  | -1 -> ()
  | o ->
    Tbl.remove_slot t.originated o;
    with_batch t run_decision prefix

(* --- Sessions ---------------------------------------------------------- *)

(* A session that just came up holds nothing: it is sent every best it
   may have. *)
let sync_peer t peer =
  List.iter
    (fun (prefix, route) ->
      if may_export peer route (provenance t route) then
        Mrai.announce peer.mrai prefix (exported t route))
    (Rib.Loc.entries t.rib)

let session_down t peer_asn =
  match find_peer t peer_asn with
  | None -> ()
  | Some peer ->
    if Session.teardown peer.session then begin
      Mrai.reset peer.mrai;
      let dropped_in = Rib.Adj_in.drop_peer t.rib ~peer:peer_asn in
      with_batch t run_decisions dropped_in
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

(* A peer joins [added]; the next read of the peers merges it in.  Once
   merged (after [start]), a duplicate is refused here; before, by the
   merge. *)
let add_peer t ~peer_asn ~peer_node ~policy =
  if t.added = [] && Option.is_some (find_peer t peer_asn) then
    invalid_arg (Fmt.str "Router.add_peer: duplicate %a" Net.Asn.pp peer_asn);
  let session = Session.create t.ep ~asn:t.asn ~router_id:t.router_id ~key:peer_node in
  let send_update update =
    (* Checked at send time: the peer may have gone down since the
       update was queued. *)
    if Session.is_established session then
      ignore (send_message t peer_node (Message.Update update))
  in
  let mrai =
    Mrai.create ~batch:t.batch t.sim ~rng:(Engine.Rng.split t.rng) ~config:t.config
      ~send:send_update
  in
  let peer =
    { peer_asn; peer_node; policy; session; retry_attempt = 0; mrai; state_gauge = None }
  in
  t.added <- peer :: t.added

let start t = Array.iter (fun p -> open_session t p.peer_asn) (peers t)

(* --- Inbound processing ------------------------------------------------ *)

(* The prefixes a batch affects, each once, in first-affected order: one
   scratch per domain, reused by every router.  A mark counts only for
   the generation that set it, and each batch starts a new generation
   and an empty [order], so nothing a batch left behind (an exception
   from a subscriber included) can hide a prefix from the next. *)
type scratch = {
  marks : int Tbl.t; (* packed prefix -> generation of its last mark *)
  mutable generation : int;
  mutable order : Net.Ipv4.prefix array; (* first [count] cells *)
  mutable count : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { marks = Tbl.create (); generation = 0; order = [||]; count = 0 })

let mark s prefix =
  let key = Net.Ipv4.prefix_to_packed prefix in
  let fresh =
    match Tbl.slot s.marks key with
    | -1 ->
      ignore (Tbl.add s.marks key s.generation);
      true
    | i ->
      Tbl.value s.marks i <> s.generation
      && begin
           Tbl.set_value s.marks i s.generation;
           true
         end
  in
  if fresh then begin
    if s.count = Array.length s.order then begin
      let order = Array.make (max 8 (2 * s.count)) prefix in
      Array.blit s.order 0 order 0 s.count;
      s.order <- order
    end;
    s.order.(s.count) <- prefix;
    s.count <- s.count + 1
  end

let rec apply_withdrawn t peer s = function
  | [] -> ()
  | prefix :: rest ->
    if Rib.Adj_in.remove t.rib ~peer:peer.peer_asn prefix then mark s prefix;
    apply_withdrawn t peer s rest

(* The imported attrs are the stored route.  A path that does not start
   with the sender's ASN (empty included) fails RFC 4271 §6.3's first-AS
   check and one that holds our own ASN is a loop: either is treated as a
   withdraw (RFC 7606), which drops the peer's previous route, if any. *)
let rec apply_announced t peer s = function
  | [] -> ()
  | (prefix, attrs) :: rest ->
    if Route.neighbor attrs = Net.Asn.to_int peer.peer_asn && not (Attrs.path_contains attrs t.asn)
    then begin
      Rib.Adj_in.set t.rib prefix (Policy.import peer.policy attrs);
      mark s prefix
    end
    else if Rib.Adj_in.remove t.rib ~peer:peer.peer_asn prefix then mark s prefix;
    apply_announced t peer s rest

(* A busy period's one event.  The inbox is taken first, so a subscriber's
   exception cannot leave it full with no event pending; an UPDATE whose
   session went down since it arrived is skipped. *)
let process_inbox t () =
  let updates = List.rev t.inbox in
  t.inbox <- [];
  let s = Domain.DLS.get scratch_key in
  s.generation <- s.generation + 1;
  s.count <- 0;
  List.iter
    (fun (peer, (u : Message.update)) ->
      if Session.is_established peer.session then begin
        apply_withdrawn t peer s u.Message.withdrawn;
        apply_announced t peer s u.Message.announced
      end)
    updates;
  for i = 0 to s.count - 1 do
    run_decision t s.order.(i)
  done

(* Only an OPEN (table sync) and a NOTIFICATION (session down, which
   opens its own scope) queue outbound changes here; an UPDATE's changes
   come from its inbox's [bgp.process] event. *)
let handle_peer_message t peer msg =
  Session.touch peer.session;
  match msg with
  | Message.Open { hold_time; _ } ->
    if Session.receive_open peer.session ~hold_time then begin
      peer.retry_attempt <- 0;
      with_batch t sync_peer peer
    end
  | Message.Keepalive -> ()
  | Message.Notification _ -> session_down t peer.peer_asn
  | Message.Update u ->
    let withdrawn = List.length u.Message.withdrawn in
    t.stats.msgs_in <- t.stats.msgs_in + 1;
    t.stats.prefixes_in <- t.stats.prefixes_in + List.length u.Message.announced + withdrawn;
    t.stats.withdrawals_in <- t.stats.withdrawals_in + withdrawn;
    Engine.Sim.mark t.sim ~category:"bgp.update" ~node:(Engine.Node.trace_node t.node)
      ~render:Net.Asn.int_to_string (Net.Asn.to_int peer.peer_asn);
    (* A crash voids the pending event and empties the inbox. *)
    if t.inbox = [] then
      Engine.Node.schedule_after ~category:"bgp.process" t.node
        (Config.processing_delay t.config t.rng)
        (fun () -> with_batch t process_inbox ());
    t.inbox <- (peer, u) :: t.inbox

let handle_message t ~from msg = with_peer_of_node t from handle_peer_message msg

(* --- Lifecycle ---------------------------------------------------------- *)

(* Crash: lose all volatile bgpd state, the inbox included.  [originated]
   survives — it is the router's configuration, not learned state.  Owned
   timers and scheduled events are voided by the node runtime itself. *)
let on_crashed t =
  t.inbox <- [];
  Array.iter
    (fun peer ->
      Session.crash peer.session;
      peer.retry_attempt <- 0;
      Mrai.reset peer.mrai)
    (peers t);
  Rib.clear t.rib

(* Restart: re-originate configured prefixes, then resync every session.
   The NOTIFICATION makes the live peer run its session-down path (it
   flushes routes learned from us and stops treating the old session as
   open), so the OPEN that follows is answered like a cold start. *)
let on_restarted t =
  with_batch t run_decisions (Tbl.keys t.originated);
  Array.iter
    (fun peer ->
      ignore (send_message t peer.peer_node (Message.Notification "peer restarted"));
      open_session t peer.peer_asn)
    (peers t)

(* --- Construction and telemetry ----------------------------------------- *)

let register_series t =
  let m = Engine.Sim.metrics t.sim in
  let labels = [ ("node", name t) ] in
  let counter ~help name = Engine.Metrics.counter m ~help ~labels name in
  let gauge ~help name = Engine.Metrics.gauge m ~help ~labels name in
  {
    updates_sent = counter ~help:"prefixes announced in sent UPDATEs" "bgp_updates_sent_total";
    updates_received =
      counter ~help:"prefixes announced in received UPDATEs" "bgp_updates_received_total";
    withdrawals_sent =
      counter ~help:"prefixes withdrawn in sent UPDATEs" "bgp_withdrawals_sent_total";
    withdrawals_received =
      counter ~help:"prefixes withdrawn in received UPDATEs" "bgp_withdrawals_received_total";
    decision_runs_c = counter ~help:"decision process invocations" "bgp_decision_runs_total";
    best_changes_c = counter ~help:"Loc-RIB best-path changes" "bgp_best_changes_total";
    hold_expirations = Session.expirations_counter t.ep;
    loc_gauge = gauge ~help:"routes in the Loc-RIB" "bgp_loc_rib_routes";
    adj_gauge = gauge ~help:"routes in the Adj-RIB-In" "bgp_adj_in_routes";
  }

let state_gauge t peer =
  match peer.state_gauge with
  | Some g -> g
  | None ->
    let g =
      Engine.Metrics.gauge (Engine.Sim.metrics t.sim)
        ~help:"BGP session FSM state (0=idle, 1=connect, 2=established)"
        ~labels:[ ("node", name t); ("peer", Net.Asn.to_string peer.peer_asn) ]
        "bgp_session_state"
    in
    peer.state_gauge <- Some g;
    g

(* A counter is monotonic, so it follows the count it exports by adding
   what the count gained since the last snapshot. *)
let sync counter count =
  Engine.Metrics.Counter.add counter (count - Engine.Metrics.Counter.value counter)

(* The router's one collector: its counts, RIB sizes and every peer's
   session state, sampled at scrape time. *)
let collect t =
  let s =
    match t.series with
    | Some s -> s
    | None ->
      let s = register_series t in
      t.series <- Some s;
      s
  in
  let st = t.stats in
  sync s.updates_sent (st.prefixes_out - st.withdrawals_out);
  sync s.updates_received (st.prefixes_in - st.withdrawals_in);
  sync s.withdrawals_sent st.withdrawals_out;
  sync s.withdrawals_received st.withdrawals_in;
  sync s.decision_runs_c st.decision_runs;
  sync s.best_changes_c st.best_changes;
  sync s.hold_expirations (Session.hold_expirations t.ep);
  Engine.Metrics.Gauge.set s.loc_gauge (float_of_int (Rib.Loc.size t.rib));
  Engine.Metrics.Gauge.set s.adj_gauge (float_of_int (Rib.Adj_in.size t.rib));
  Array.iter
    (fun peer ->
      Engine.Metrics.Gauge.set (state_gauge t peer)
        (float_of_int (Session.to_int (Session.state peer.session))))
    (peers t)

let hold_expired_node t node =
  with_peer_of_node t node (fun t peer () -> hold_expired t peer.peer_asn) ()

let create ~sim ~asn ~node_id ~router_id ~config ~send () =
  (* The split from the root stream happens exactly where it always did,
     keeping every later subsystem's draws byte-identical. *)
  let rng = Engine.Rng.split (Engine.Sim.rng sim) in
  let node = Engine.Node.create ~kind:"router" sim ~name:(Net.Asn.to_string asn) in
  let stats =
    {
      msgs_in = 0;
      msgs_out = 0;
      prefixes_in = 0;
      prefixes_out = 0;
      withdrawals_in = 0;
      withdrawals_out = 0;
      decision_runs = 0;
      best_changes = 0;
    }
  in
  (* A session names its peer by the peer's node.  Hold expiry needs the
     router, which holds the endpoint, so it reaches it through [self]. *)
  let self = ref None in
  let ep =
    Session.endpoint node ~rng ~category:"bgp.liveness" ~send:(count_sent stats send)
      ~on_expired:(fun peer_node -> Option.iter (fun t -> hold_expired_node t peer_node) !self)
      config.Config.keepalives
  in
  let t =
    {
      sim;
      node;
      rng;
      asn;
      node_id;
      router_id;
      config;
      ep;
      send_raw = send;
      peers = [||];
      by_node = [||];
      added = [];
      rib = Rib.create ();
      originated = Tbl.create ();
      inbox = [];
      stats;
      series = None;
      on_best_change = [||];
      batch = Mrai.batch ();
    }
  in
  self := Some t;
  Engine.Metrics.on_collect (Engine.Sim.metrics sim) (fun () -> collect t);
  Engine.Node.on_crash node (fun () -> on_crashed t);
  Engine.Node.on_start node (fun ~first -> if not first then on_restarted t);
  Engine.Node.start node;
  t

(* Test/diagnostic accessors. *)

let adj_in_find t ~peer prefix = Rib.Adj_in.find t.rib ~peer prefix

let adj_out_find t ~peer prefix =
  match find_peer t peer with
  | Some p when Session.is_established p.session ->
    let sent =
      match best t prefix with
      | Some r when may_export p r (provenance t r) -> Some (exported t r)
      | Some _ | None -> None
    in
    Mrai.view p.mrai prefix ~sent
  | Some _ | None -> None

let queued_count t =
  Array.fold_left (fun n p -> n + Mrai.queued_count p.mrai) 0 (peers t)

let adj_in_size t = Rib.Adj_in.size t.rib

let loc_size t = Rib.Loc.size t.rib
