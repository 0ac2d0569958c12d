(* The cluster BGP speaker (the ExaBGP role).

   It terminates every external eBGP peering of every cluster member —
   while preserving the member's AS identity on the wire — and relays
   routing information between the legacy neighbors and the controller.
   Messages physically travel encapsulated over the speaker's link to the
   member's border switch (Switch.handle_control forwards them out).

   Each session is a record carrying its export/import policy, resolved
   once when the peering is configured; the controller walks the records
   in configuration order and announces through them directly, without
   a per-prefix (member, neighbor) lookup.  Each session's outbound side
   is a [Bgp.Mrai.t], the same Adj-RIB-Out and update queue a router
   keeps per peer: it deduplicates the controller's (re)announcements
   and, when configured, paces them with an MRAI like a conventional BGP
   implementation would (off by default — ExaBGP emits updates as
   instructed; the controller's delayed recomputation is the rate
   limiter). *)

type session = {
  member : Net.Asn.t;
  neighbor : Net.Asn.t;
  policy : Bgp.Policy.t;
  bgp : Bgp.Session.t;
  out : Bgp.Mrai.t;
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
  let s = { member; neighbor; policy; bgp; out } in
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

(* A BGP message relayed in from a border switch. *)
let handle_relay t ~member ~neighbor (msg : Bgp.Message.t) =
  match find t ~member ~neighbor with
  | None -> ()
  | Some s -> (
    Bgp.Session.touch s.bgp;
    match msg with
    | Bgp.Message.Open { hold_time; _ } ->
      if Bgp.Session.receive_open s.bgp ~hold_time then t.on_session s ~up:true
    | Bgp.Message.Keepalive -> ()
    | Bgp.Message.Notification _ -> down t s
    | Bgp.Message.Update u ->
      if is_established s then begin
        Engine.Sim.mark t.sim ~category:"speaker.relay" ~node:"speaker"
          ~render:Net.Asn.int_to_string (Net.Asn.to_int neighbor);
        t.on_update s u
      end)

(* Controller-driven advertisement; [Bgp.Mrai] deduplicates against the
   session's Adj-RIB-Out. *)
let announce_to _ s prefix attrs = if is_established s then Bgp.Mrai.announce s.out prefix attrs

let withdraw_to _ s prefix = if is_established s then Bgp.Mrai.withdraw s.out prefix

let announce t ~member ~neighbor prefix attrs =
  Option.iter (fun s -> announce_to t s prefix attrs) (find t ~member ~neighbor)

let withdraw t ~member ~neighbor prefix =
  Option.iter (fun s -> withdraw_to t s prefix) (find t ~member ~neighbor)

let advertised t ~member ~neighbor prefix =
  Option.bind (find t ~member ~neighbor) (fun s -> Bgp.Mrai.advertised s.out prefix)

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
      Bgp.Mrai.reset s.out)

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
