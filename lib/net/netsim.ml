(* The emulated network fabric: nodes, links, and delayed message delivery.

   Parametric in the message payload so the protocol layers (BGP, OpenFlow,
   data packets) define their own message types without this module
   depending on them.  A message takes one path: [send] schedules a single
   delivery at now + link delay; at delivery time the link-up, loss and
   node-up checks run, then the receiver's [Engine.Node] port handler.
   Messages in flight when their link fails are dropped at delivery time,
   like frames on a cut wire, and a down node's traffic is dropped with
   reason [Node_down] instead of being handed to stale state.

   Every silent drop is accounted per reason under
   [net_messages_dropped_total{reason=...}]; the unlabeled aggregate series
   is kept (registered eagerly, as before) so existing dashboards and the
   byte-identical export guarantee for drop-free runs are preserved — the
   labeled children only appear once a drop of that reason happens. *)

type link_watcher = link:Link.t -> peer:int -> up:bool -> unit

type drop_reason = Link_down | Loss | No_handler | Node_down | Session_down

(* Int-keyed tables (node ids, link ids, endpoint pairs), so
   neither the key nor the hash goes through the polymorphic primitives.
   The multiplicative hash moves well-mixed high product bits down, as
   bucket selection reads the low bits and pair keys differ in high ones. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = (x * 0x2545F4914F6CDD1D) lsr 20
end)

let drop_reason_label = function
  | Link_down -> "link_down"
  | Loss -> "loss"
  | No_handler -> "no_handler"
  | Node_down -> "node_down"
  | Session_down -> "session_down"

type 'a node = {
  mutable sink : 'a Engine.Node.port option;
  mutable link_watcher : link_watcher option;
  idx : int; (* dense, in [add_node] order: the halves of a [pairs] key *)
}

type 'a t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  nodes : 'a node Itbl.t;
  mutable links : Link.t array; (* by link id: the first [next_link_id] *)
  pairs : Link.t Itbl.t; (* by [pair_key] of the endpoints *)
  mutable next_link_id : int;
  sent_c : Engine.Metrics.Counter.t;
  delivered_c : Engine.Metrics.Counter.t;
  dropped_c : Engine.Metrics.Counter.t;
  dropped_by : (drop_reason, Engine.Metrics.Counter.t) Hashtbl.t;
  drop_counts : (drop_reason, int) Hashtbl.t;
}

let create sim =
  let m = Engine.Sim.metrics sim in
  {
    sim;
    rng = Engine.Rng.split (Engine.Sim.rng sim);
    nodes = Itbl.create 64;
    links = [||];
    pairs = Itbl.create 64;
    next_link_id = 0;
    sent_c =
      Engine.Metrics.counter m ~help:"messages accepted onto a link" "net_messages_sent_total";
    delivered_c =
      Engine.Metrics.counter m ~help:"messages handed to a receiver"
        "net_messages_delivered_total";
    (* The help text (shared with the labeled children) is part of the
       pinned metrics exports, so it keeps its wording. *)
    dropped_c =
      Engine.Metrics.counter m
        ~help:"messages lost to link failure, loss, queue overflow or no handler"
        "net_messages_dropped_total";
    dropped_by = Hashtbl.create 8;
    drop_counts = Hashtbl.create 8;
  }

(* One int per unordered node pair: the two dense indices side by side. *)
let pair_key a b = if a.idx < b.idx then (a.idx lsl 31) lor b.idx else (b.idx lsl 31) lor a.idx

let add_node t ~id =
  if Itbl.mem t.nodes id then invalid_arg (Fmt.str "Netsim.add_node: duplicate id %d" id);
  Itbl.replace t.nodes id { sink = None; link_watcher = None; idx = Itbl.length t.nodes }

let node t id =
  match Itbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Netsim: unknown node %d" id)

let attach t id port = (node t id).sink <- Some port

let attached_node t id = Option.map Engine.Node.port_node (node t id).sink

let set_link_watcher t id w = (node t id).link_watcher <- Some w

let add_link ?(delay = Engine.Time.ms 2) ?(loss = 0.0) t u v =
  let nu = node t u and nv = node t v in
  let key = pair_key nu nv in
  if Itbl.mem t.pairs key then
    invalid_arg (Fmt.str "Netsim.add_link: duplicate link %d<->%d" u v);
  let id = t.next_link_id in
  t.next_link_id <- id + 1;
  let link = Link.make ~id ~a:u ~b:v ~delay ~loss in
  if id = Array.length t.links then begin
    let links = Array.make (max 64 (2 * id)) link in
    Array.blit t.links 0 links 0 id;
    t.links <- links
  end;
  t.links.(id) <- link;
  Itbl.replace t.pairs key link;
  link

let link_between t u v =
  match (Itbl.find_opt t.nodes u, Itbl.find_opt t.nodes v) with
  | Some nu, Some nv -> Itbl.find_opt t.pairs (pair_key nu nv)
  | _ -> None

let links t = List.init t.next_link_id (fun id -> t.links.(id))

let iter_links t f =
  for id = 0 to t.next_link_id - 1 do
    f t.links.(id)
  done

let set_link_up t link up =
  if Link.is_up link <> up then begin
    Link.set_up_internal link up;
    let a, b = Link.endpoints link in
    let notify endpoint peer =
      match (node t endpoint).link_watcher with
      | Some w -> w ~link ~peer ~up
      | None -> ()
    in
    notify a b;
    notify b a
  end

let fail_link_between t u v =
  match link_between t u v with
  | Some l ->
    set_link_up t l false;
    true
  | None -> false

let recover_link_between t u v =
  match link_between t u v with
  | Some l ->
    set_link_up t l true;
    true
  | None -> false

(* The per-reason children are registered on first drop of that reason so
   drop-free runs export exactly the series they always did.  [note_drop]
   is the link-less entry point: protocol layers use it to account drops
   that never reach a wire (e.g. BGP relays discarded while a session or
   its controller channel is down). *)
let note_drop t reason =
  Engine.Metrics.Counter.inc t.dropped_c;
  let labelled =
    match Hashtbl.find_opt t.dropped_by reason with
    | Some c -> c
    | None ->
      let c =
        Engine.Metrics.counter (Engine.Sim.metrics t.sim)
          ~help:"messages lost to link failure, loss, queue overflow or no handler"
          ~labels:[ ("reason", drop_reason_label reason) ]
          "net_messages_dropped_total"
      in
      Hashtbl.replace t.dropped_by reason c;
      c
  in
  Engine.Metrics.Counter.inc labelled;
  Hashtbl.replace t.drop_counts reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.drop_counts reason))

let drops t reason = Option.value ~default:0 (Hashtbl.find_opt t.drop_counts reason)

let deliver t link ~src (dst : _ node) payload =
  if not (Link.is_up link) then note_drop t Link_down
  else if Link.loss link > 0.0 && Engine.Rng.chance t.rng (Link.loss link) then
    note_drop t Loss
  else begin
    match dst.sink with
    | None -> note_drop t No_handler
    | Some p when not (Engine.Node.is_up (Engine.Node.port_node p)) -> note_drop t Node_down
    | Some p ->
      Engine.Metrics.Counter.inc t.delivered_c;
      ignore (Engine.Node.deliver p ~from:src payload)
  end

(* Every BGP message passes here, so the lookups raise rather than
   return options. *)
let send t ~src ~dst payload =
  match Itbl.find t.nodes dst with
  | exception Not_found -> false
  | dst_node -> (
    match Itbl.find t.pairs (pair_key (Itbl.find t.nodes src) dst_node) with
    | exception Not_found -> false
    | link ->
      Link.is_up link
      && begin
           Engine.Metrics.Counter.inc t.sent_c;
           ignore
             (Engine.Sim.schedule_after ~category:"net.deliver" t.sim (Link.delay link)
                (fun () -> deliver t link ~src dst_node payload));
           true
         end)
