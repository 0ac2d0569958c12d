(* The cluster BGP speaker (the ExaBGP role).

   It terminates every external eBGP peering of every cluster member —
   while preserving the member's AS identity on the wire — and relays
   routing information between the legacy neighbors and the controller.
   Messages physically travel encapsulated over the speaker's link to the
   member's border switch (Switch.handle_control forwards them out).

   Each session is a record carrying its export/import policy, resolved
   once when the peering is configured; the controller hands the speaker
   each prefix's member decisions and the speaker walks the sessions in
   configuration order, turning the member's decision into what the
   session is sent.  Each session's queued changes are a [Bgp.Mrai.t],
   the same outbound queue a router keeps per peer: when configured, it
   paces them with an MRAI like a conventional BGP implementation would
   (off by default — ExaBGP emits updates as instructed; the
   controller's delayed recomputation is the rate limiter).

   A session's Adj-RIB-Out is derived, not stored: its queued change for
   a prefix, else the export of the decision it was last synced with.
   The speaker records, per prefix, the member decisions it last synced
   to every session; the record is the speaker's own, so it outlives a
   controller crash.  A session keeps its own entries ([overrides]) only
   where its last sync differs from the record: a session that comes up
   is sent nothing until its own full-table sync, which may differ from
   the record (say, while the controller is empty after a crash).  So a
   change that would tell a session what it already holds is dropped,
   as a stored Adj-RIB-Out would drop it. *)

module Tbl = Net.Ipv4.Prefix_table

type session = {
  member : Net.Asn.t;
  neighbor : Net.Asn.t;
  policy : Bgp.Policy.t;
  member_addr : Net.Ipv4.addr; (* the next hop of every announcement *)
  bgp : Bgp.Session.t;
  out : Bgp.Mrai.t;
  (* The member decision this session was last synced with ([None]: it
     was sent nothing), where that differs from the record; empty while
     the session is down. *)
  overrides : As_graph.decision option Tbl.t;
}

type t = {
  sim : Engine.Sim.t;
  node : Engine.Node.t;
  rng : Engine.Rng.t;
  ep : Bgp.Session.endpoint;
  send_relay : member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.t -> bool;
  by_key : (Net.Asn.t * Net.Asn.t, session) Hashtbl.t; (* relay and API lookups *)
  mutable order : session array; (* first [count] slots: configuration order *)
  mutable count : int;
  mutable on_update : session -> Bgp.Message.update -> unit;
  mutable on_session : session -> up:bool -> unit;
  (* Update batching, mirroring Router: controller-driven announcement
     bursts within one scheduler event leave as one UPDATE per session. *)
  batch : Bgp.Mrai.batch;
  (* Per prefix, the member decisions last synced to every session (none
     stored for an empty map). *)
  record : As_graph.decision Net.Asn.Map.t Tbl.t;
  (* The last announcement built and its decision: the sessions of one
     member are configured in a row and share it. *)
  mutable built : (As_graph.decision * Bgp.Attrs.t) option;
}

let node t = t.node

let attach_controller t ~on_update ~on_session =
  t.on_update <- on_update;
  t.on_session <- on_session

let find t ~member ~neighbor = Hashtbl.find_opt t.by_key (member, neighbor)

let iter_sessions t f =
  for i = 0 to t.count - 1 do
    f (Array.unsafe_get t.order i)
  done

let sessions t = List.init t.count (fun i -> t.order.(i))

let session_member s = s.member

let session_neighbor s = s.neighbor

let session_policy s = s.policy

let is_established s = Bgp.Session.is_established s.bgp

let sessions_of t member =
  List.filter_map
    (fun s -> if Net.Asn.equal s.member member then Some s.neighbor else None)
    (sessions t)

let session_established t ~member ~neighbor =
  match find t ~member ~neighbor with Some s -> is_established s | None -> false

let send_wire t (s : session) msg = t.send_relay ~member:s.member ~neighbor:s.neighbor msg

let down t s =
  if Bgp.Session.teardown s.bgp then begin
    Bgp.Mrai.reset s.out;
    Tbl.clear s.overrides;
    t.on_session s ~up:false
  end

let session_down t ~member ~neighbor = Option.iter (down t) (find t ~member ~neighbor)

(* A session's key is its position in [order]. *)
let add_session ?(mrai_config : Bgp.Config.t option) t ~member ~neighbor ~member_addr ~policy =
  let key = (member, neighbor) in
  if Hashtbl.mem t.by_key key then
    invalid_arg
      (Fmt.str "Speaker.add_session: duplicate %a/%a" Net.Asn.pp member Net.Asn.pp neighbor);
  let bgp = Bgp.Session.create t.ep ~asn:member ~router_id:member_addr ~key:t.count in
  let send update =
    if Bgp.Session.is_established bgp then
      ignore (t.send_relay ~member ~neighbor (Bgp.Message.Update update))
  in
  let out =
    match mrai_config with
    | Some config ->
      Bgp.Mrai.create ~batch:t.batch t.sim ~rng:(Engine.Rng.split t.rng) ~config ~send
    | None -> Bgp.Mrai.unpaced ~batch:t.batch ~send ()
  in
  let s = { member; neighbor; policy; member_addr; bgp; out; overrides = Tbl.create () } in
  Hashtbl.replace t.by_key key s;
  if t.count = Array.length t.order then begin
    let order = Array.make (max 16 (2 * t.count)) s in
    Array.blit t.order 0 order 0 t.count;
    t.order <- order
  end;
  t.order.(t.count) <- s;
  t.count <- t.count + 1

(* End-of-scope flush of the dirty sessions, in configuration order. *)
let close_batch t =
  if Bgp.Mrai.leave t.batch then
    for i = 0 to t.count - 1 do
      let out = t.order.(i).out in
      if Bgp.Mrai.is_dirty out then Bgp.Mrai.flush_event out
    done

(* As [Bgp.Router.with_batch]: a direct handler, so the scope closes (and
   flushes) on both paths without allocating, and an exception leaves
   with its own backtrace. *)
let with_batch t f =
  Bgp.Mrai.enter t.batch;
  match f () with
  | v ->
    close_batch t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_batch t;
    Printexc.raise_with_backtrace e bt

let open_all t = iter_sessions t (fun s -> ignore (Bgp.Session.connect s.bgp))

let open_session t ~member ~neighbor =
  match find t ~member ~neighbor with
  | None ->
    invalid_arg
      (Fmt.str "Speaker.open_session: unknown %a/%a" Net.Asn.pp member Net.Asn.pp neighbor)
  | Some s -> ignore (Bgp.Session.connect s.bgp)

(* --- What a session is sent -------------------------------------------- *)

let rec path_mem (asn : Net.Asn.t) (path : Net.Asn.t list) =
  match path with
  | [] -> false
  | a :: rest -> (a :> int) = (asn :> int) || path_mem asn rest

(* Whether the session is sent the member's centrally selected route:
   not back to its exit, not to the member itself, no loop, and the
   session's export policy agrees. *)
let exports s (d : As_graph.decision) =
  let back_to_exit =
    match d.As_graph.hop with
    | As_graph.Exit { neighbor = n } -> Net.Asn.equal n s.neighbor
    | As_graph.Bridge { via_neighbor; _ } -> Net.Asn.equal via_neighbor s.neighbor
    | As_graph.Deliver_local | As_graph.Intra _ -> false
  in
  not
    (back_to_exit || Net.Asn.equal s.neighbor s.member
    || path_mem s.neighbor d.As_graph.as_path
    || not
         (Bgp.Policy.export_allowed ~to_rel:s.policy ~provenance:d.As_graph.provenance))

let exports_opt s = function Some d -> exports s d | None -> false

(* The announcement for an exported decision: the member's ASN
   prepended (AS identity preserved), the member's own next hop. *)
let attrs t s (d : As_graph.decision) =
  match t.built with
  | Some (b, a) when b == d && Net.Ipv4.equal_addr a.Bgp.Attrs.next_hop s.member_addr -> a
  | Some _ | None ->
    let a = Bgp.Attrs.make ~as_path:(s.member :: d.As_graph.as_path) ~next_hop:s.member_addr () in
    t.built <- Some (d, a);
    a

(* Two decisions the session is sent alike: both withheld, or both
   exported along the same path. *)
let same_export s a b =
  match (a, b) with
  | Some (x : As_graph.decision), Some (y : As_graph.decision) when exports s x && exports s y ->
    x == y || List.equal Net.Asn.equal x.As_graph.as_path y.As_graph.as_path
  | _ -> not (exports_opt s a || exports_opt s b)

let recorded t s prefix =
  match Tbl.slot t.record (Net.Ipv4.prefix_to_packed prefix) with
  | -1 -> None
  | i -> Net.Asn.Map.find_opt s.member (Tbl.value t.record i)

(* The member decision the session was last synced with. *)
let synced t s prefix =
  match Tbl.slot s.overrides (Net.Ipv4.prefix_to_packed prefix) with
  | -1 -> recorded t s prefix
  | i -> Tbl.value s.overrides i

(* Move an established session from decision [old] to [d]: its view
   (its queued change for the prefix, else what it was sent) is what
   [old] exports to it. *)
let update t s prefix ~old d =
  if not (same_export s old d) then
    match d with
    | Some d when exports s d -> Bgp.Mrai.announce s.out prefix (attrs t s d)
    | Some _ | None -> Bgp.Mrai.withdraw s.out prefix

(* A session that just came up holds nothing: where the record has it
   sent something, it starts with an entry of its own. *)
let came_up t s =
  Tbl.clear s.overrides;
  Array.iter
    (fun i ->
      match Net.Asn.Map.find_opt s.member (Tbl.value t.record i) with
      | Some d when exports s d -> ignore (Tbl.add s.overrides (Tbl.packed_at t.record i) None)
      | Some _ | None -> ())
    (Tbl.sorted_slots t.record)

let sync t prefix decisions =
  let key = Net.Ipv4.prefix_to_packed prefix in
  let recorded =
    match Tbl.slot t.record key with -1 -> Net.Asn.Map.empty | i -> Tbl.value t.record i
  in
  (* The sessions of one member are configured in a row: look its
     decisions up once. *)
  let member = ref (-1) and d = ref None and old = ref None and announced = ref 0 in
  for i = 0 to t.count - 1 do
    let s = t.order.(i) in
    if (s.member :> int) <> !member then begin
      member := (s.member :> int);
      d := Net.Asn.Map.find_opt s.member decisions;
      old := Net.Asn.Map.find_opt s.member recorded
    end;
    if exports_opt s !d then incr announced;
    if is_established s then begin
      let old =
        match Tbl.slot s.overrides key with
        | -1 -> !old
        | j ->
          let o = Tbl.value s.overrides j in
          Tbl.remove_slot s.overrides j;
          o
      in
      update t s prefix ~old !d
    end
  done;
  if Net.Asn.Map.is_empty decisions then Tbl.remove prefix t.record
  else Tbl.set prefix decisions t.record;
  !announced

let resync t s prefixes decisions_of =
  List.fold_left
    (fun announced prefix ->
      let d = Net.Asn.Map.find_opt s.member (decisions_of prefix) in
      if is_established s then begin
        update t s prefix ~old:(synced t s prefix) d;
        if same_export s (recorded t s prefix) d then Tbl.remove prefix s.overrides
        else Tbl.set prefix d s.overrides
      end;
      if exports_opt s d then announced + 1 else announced)
    0 prefixes

let session_count t = t.count

let queued_count t =
  let n = ref 0 in
  iter_sessions t (fun s -> n := !n + Bgp.Mrai.queued_count s.out);
  !n

let advertised t ~member ~neighbor prefix =
  match find t ~member ~neighbor with
  | Some s when is_established s ->
    let sent =
      match synced t s prefix with Some d when exports s d -> Some (attrs t s d) | _ -> None
    in
    Bgp.Mrai.view s.out prefix ~sent
  | Some _ | None -> None

(* A BGP message relayed in from a border switch. *)
let handle_relay t ~member ~neighbor (msg : Bgp.Message.t) =
  match find t ~member ~neighbor with
  | None -> ()
  | Some s -> (
    Bgp.Session.touch s.bgp;
    match msg with
    | Bgp.Message.Open { hold_time; _ } ->
      if Bgp.Session.receive_open s.bgp ~hold_time then begin
        came_up t s;
        t.on_session s ~up:true
      end
    | Bgp.Message.Keepalive -> ()
    | Bgp.Message.Notification _ -> down t s
    | Bgp.Message.Update u ->
      if is_established s then begin
        Engine.Sim.mark t.sim ~category:"speaker.relay" ~node:(Engine.Node.trace_node t.node)
          ~render:Net.Asn.int_to_string (Net.Asn.to_int neighbor);
        t.on_update s u
      end)

(* --- Lifecycle ---------------------------------------------------------- *)

(* A crashed speaker silently loses every session (the ExaBGP process
   died); peers only find out when the restart's NOTIFICATION reaches
   them.  The controller is not notified here — when the speaker crashes
   alone the framework decides, and when the whole cluster head crashes
   the controller loses its RIB anyway. *)
let on_crashed t =
  iter_sessions t
    (fun s ->
      Bgp.Session.crash s.bgp;
      Bgp.Mrai.reset s.out;
      Tbl.clear s.overrides)

(* Restart: NOTIFICATION-then-OPEN on every configured session, so the
   remote router tears the old session down (flushing our stale routes)
   and answers the OPEN like a cold start. *)
let on_restarted t =
  iter_sessions t (fun s ->
      ignore (send_wire t s (Bgp.Message.Notification "speaker restarted"));
      ignore (Bgp.Session.connect s.bgp))

let create ?liveness ~sim ~send_relay () =
  let rng = Engine.Rng.split (Engine.Sim.rng sim) in
  let node = Engine.Node.create ~kind:"speaker" sim ~name:"speaker" in
  (* Sessions are keyed by their position in [order], which the endpoint's
     hooks read through [self]. *)
  let self = ref None in
  let session i = (Option.get !self).order.(i) in
  let ep =
    Bgp.Session.endpoint node ~rng ~category:"speaker.liveness"
      ~send:(fun i msg -> send_wire (Option.get !self) (session i) msg)
      ~on_expired:(fun i -> down (Option.get !self) (session i))
      liveness
  in
  let t =
    {
      sim;
      node;
      rng;
      ep;
      send_relay;
      by_key = Hashtbl.create 32;
      order = [||];
      count = 0;
      on_update = (fun _ _ -> ());
      on_session = (fun _ ~up:_ -> ());
      batch = Bgp.Mrai.batch ();
      record = Tbl.create ();
      built = None;
    }
  in
  self := Some t;
  (* The expiry counter, registered on the first snapshot. *)
  let expirations = lazy (Bgp.Session.expirations_counter ep) in
  Engine.Metrics.on_collect (Engine.Sim.metrics sim) (fun () ->
      let c = Lazy.force expirations in
      Engine.Metrics.Counter.add c
        (Bgp.Session.hold_expirations ep - Engine.Metrics.Counter.value c));
  Engine.Node.on_crash t.node (fun () -> on_crashed t);
  Engine.Node.on_start t.node (fun ~first -> if not first then on_restarted t);
  Engine.Node.start t.node;
  t
