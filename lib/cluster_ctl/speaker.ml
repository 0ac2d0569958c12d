(* The cluster BGP speaker (the ExaBGP role).

   It terminates every external eBGP peering of every cluster member —
   while preserving the member's AS identity on the wire — and relays
   routing information between the legacy neighbors and the controller.
   Messages physically travel encapsulated over the speaker's link to the
   member's border switch (Switch.handle_control forwards them out).

   Each session is a record carrying its export/import policy, resolved
   once when the peering is configured; the controller walks the records
   in configuration order and announces through them directly, without
   a per-prefix (member, neighbor) lookup.  The speaker keeps a
   per-session exact-match Adj-RIB-Out so the controller's
   (re)announcements are deduplicated, and optionally paces announcements
   with an MRAI like a conventional BGP implementation would (off by
   default — ExaBGP emits updates as instructed; the controller's delayed
   recomputation is the rate limiter). *)

module Pt = Net.Ipv4.Prefix_table

type session = {
  member : Net.Asn.t;
  neighbor : Net.Asn.t;
  policy : Bgp.Policy.t;
  bgp : Bgp.Session.t;
  adj_out : Bgp.Attrs.t Pt.t;
  mrai : Bgp.Mrai.t option;
  (* Non-MRAI sessions note the prefixes whose Adj-RIB-Out entry changed
     within a batch scope; the scope close emits their current entries
     (or withdrawals) as one packed UPDATE.  Always empty between
     scheduler events. *)
  mutable touched : Net.Ipv4.prefix list;
  mutable dirty : bool;
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
  mutable batch_depth : int;
  mutable any_dirty : bool;
}

(* [create] is completed at the bottom of this file. *)
let create_unhooked ?liveness ~sim ~send_relay () =
  let rng = Engine.Rng.split (Engine.Sim.rng sim) in
  let node = Engine.Node.create ~kind:"speaker" sim ~name:"speaker" in
  {
    sim;
    node;
    rng;
    ep = Bgp.Session.endpoint node ~rng ~category:"speaker.liveness" liveness;
    send_relay;
    by_key = Hashtbl.create 32;
    order = [||];
    count = 0;
    on_update = (fun _ _ -> ());
    on_session = (fun _ ~up:_ -> ());
    batch_depth = 0;
    any_dirty = false;
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
    Pt.clear s.adj_out;
    s.touched <- [];
    s.dirty <- false;
    Option.iter Bgp.Mrai.reset s.mrai;
    t.on_session s ~up:false
  end

let session_down t ~member ~neighbor = Option.iter (down t) (find t ~member ~neighbor)

let add_session ?(mrai_config : Bgp.Config.t option) t ~member ~neighbor ~member_addr ~policy =
  let key = (member, neighbor) in
  if Hashtbl.mem t.by_key key then
    invalid_arg
      (Fmt.str "Speaker.add_session: duplicate %a/%a" Net.Asn.pp member Net.Asn.pp neighbor);
  let self = ref None in
  let mrai =
    Option.map
      (fun config ->
        Bgp.Mrai.create t.sim ~rng:(Engine.Rng.split t.rng) ~config
          ~send:(fun update ->
            match !self with
            | Some s when is_established s -> ignore (send_wire t s (Bgp.Message.Update update))
            | Some _ | None -> ()))
      mrai_config
  in
  (* The session layer sends no UPDATE, so it writes to the relay directly. *)
  let bgp =
    Bgp.Session.create t.ep ~asn:member ~router_id:member_addr
      ~send:(t.send_relay ~member ~neighbor)
      ~on_expired:(fun () -> Option.iter (down t) !self)
  in
  let s =
    { member; neighbor; policy; bgp; adj_out = Pt.create (); mrai; touched = []; dirty = false }
  in
  self := Some s;
  Option.iter
    (fun m ->
      Bgp.Mrai.set_on_dirty m (fun () ->
          if t.batch_depth > 0 then begin
            s.dirty <- true;
            t.any_dirty <- true
          end
          else Bgp.Mrai.flush_event m))
    mrai;
  Hashtbl.replace t.by_key key s;
  if t.count = Array.length t.order then begin
    let order = Array.make (max 16 (2 * t.count)) s in
    Array.blit t.order 0 order 0 t.count;
    t.order <- order
  end;
  t.order.(t.count) <- s;
  t.count <- t.count + 1

(* End-of-scope flush, in configuration order. *)
let flush_session t (s : session) =
  s.dirty <- false;
  (match s.mrai with Some m -> Bgp.Mrai.flush_event m | None -> ());
  if s.touched <> [] then begin
    let announced, withdrawn =
      List.fold_left
        (fun (ann, wd) prefix ->
          match Pt.find prefix s.adj_out with
          | Some attrs -> ((prefix, attrs) :: ann, wd)
          | None -> (ann, prefix :: wd))
        ([], [])
        (List.sort_uniq (fun a b -> Net.Ipv4.compare_prefix b a) s.touched)
    in
    s.touched <- [];
    if is_established s then
      ignore (send_wire t s (Bgp.Message.update ~announced ~withdrawn ()))
  end

let flush_batch t =
  if t.any_dirty then begin
    t.any_dirty <- false;
    iter_sessions t (fun s -> if s.dirty then flush_session t s)
  end

let with_batch t f =
  t.batch_depth <- t.batch_depth + 1;
  Fun.protect
    ~finally:(fun () ->
      t.batch_depth <- t.batch_depth - 1;
      if t.batch_depth = 0 then flush_batch t)
    f

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

(* Controller-driven advertisement with Adj-RIB-Out deduplication. *)
let announce_to t s prefix attrs =
  if is_established s then begin
    match Pt.find prefix s.adj_out with
    | Some prev when Bgp.Attrs.wire_equal prev attrs -> ()
    | Some _ | None -> (
      Pt.set prefix attrs s.adj_out;
      match s.mrai with
      | Some m -> Bgp.Mrai.enqueue_announce m prefix attrs
      | None when t.batch_depth > 0 ->
        s.touched <- prefix :: s.touched;
        s.dirty <- true;
        t.any_dirty <- true
      | None ->
        ignore
          (send_wire t s (Bgp.Message.update ~announced:[ (prefix, attrs) ] ())))
  end

let withdraw_to t s prefix =
  if is_established s then begin
    if Pt.mem prefix s.adj_out then begin
      Pt.remove prefix s.adj_out;
      match s.mrai with
      | Some m -> Bgp.Mrai.enqueue_withdraw m prefix
      | None when t.batch_depth > 0 ->
        s.touched <- prefix :: s.touched;
        s.dirty <- true;
        t.any_dirty <- true
      | None -> ignore (send_wire t s (Bgp.Message.update ~withdrawn:[ prefix ] ()))
    end
  end

let announce t ~member ~neighbor prefix attrs =
  Option.iter (fun s -> announce_to t s prefix attrs) (find t ~member ~neighbor)

let withdraw t ~member ~neighbor prefix =
  Option.iter (fun s -> withdraw_to t s prefix) (find t ~member ~neighbor)

let advertised t ~member ~neighbor prefix =
  Option.bind (find t ~member ~neighbor) (fun s -> Pt.find prefix s.adj_out)

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
      Pt.clear s.adj_out;
      s.touched <- [];
      s.dirty <- false;
      Option.iter Bgp.Mrai.reset s.mrai)

(* Restart: NOTIFICATION-then-OPEN on every configured session, so the
   remote router tears the old session down (flushing our stale routes)
   and answers the OPEN like a cold start. *)
let on_restarted t =
  iter_sessions t (fun s ->
      ignore (send_wire t s (Bgp.Message.Notification "speaker restarted"));
      ignore (Bgp.Session.connect s.bgp))

let create ?liveness ~sim ~send_relay () =
  let t = create_unhooked ?liveness ~sim ~send_relay () in
  Engine.Node.on_crash t.node (fun () -> on_crashed t);
  Engine.Node.on_start t.node (fun ~first -> if not first then on_restarted t);
  Engine.Node.start t.node;
  t
