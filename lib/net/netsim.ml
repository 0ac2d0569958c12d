(* The emulated network fabric: nodes, links, and delayed message delivery.

   Parametric in the message payload so the protocol layers (BGP, OpenFlow,
   data packets) define their own message types without this module
   depending on them.  Messages in flight when their link fails are dropped
   at delivery time, like frames on a cut wire.

   Receivers are attached either as a raw handler closure (legacy, kept for
   tests) or as an [Engine.Node] port, which adds lifecycle awareness: a
   down node's traffic is dropped with reason [Node_down] instead of being
   handed to stale state.

   Every silent drop is accounted per reason under
   [net_messages_dropped_total{reason=...}]; the unlabeled aggregate series
   is kept (registered eagerly, as before) so existing dashboards and the
   byte-identical export guarantee for drop-free runs are preserved — the
   labeled children only appear once a drop of that reason happens. *)

type 'a handler = from:int -> 'a -> unit

type link_watcher = link:Link.t -> peer:int -> up:bool -> unit

type 'a sink = Handler of 'a handler | Port of 'a Engine.Node.port

type drop_reason = Link_down | Loss | Queue | No_handler | Node_down | Session_down

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
  | Queue -> "queue"
  | No_handler -> "no_handler"
  | Node_down -> "node_down"
  | Session_down -> "session_down"

type 'a node = {
  id : int;
  name : string;
  mutable sink : 'a sink option;
  mutable link_watcher : link_watcher option;
  idx : int; (* dense, in [add_node] order: the halves of a [pairs] key *)
}

type 'a t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  nodes : 'a node Itbl.t;
  links : Link.t Itbl.t; (* by link id *)
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
    links = Itbl.create 64;
    pairs = Itbl.create 64;
    next_link_id = 0;
    sent_c =
      Engine.Metrics.counter m ~help:"messages accepted onto a link" "net_messages_sent_total";
    delivered_c =
      Engine.Metrics.counter m ~help:"messages handed to a receiver"
        "net_messages_delivered_total";
    dropped_c =
      Engine.Metrics.counter m
        ~help:"messages lost to link failure, loss, queue overflow or no handler"
        "net_messages_dropped_total";
    dropped_by = Hashtbl.create 8;
    drop_counts = Hashtbl.create 8;
  }

let sim t = t.sim

(* One int per unordered node pair: the two dense indices side by side. *)
let pair_key a b = if a.idx < b.idx then (a.idx lsl 31) lor b.idx else (b.idx lsl 31) lor a.idx

let add_node t ~id ~name =
  if Itbl.mem t.nodes id then invalid_arg (Fmt.str "Netsim.add_node: duplicate id %d" id);
  Itbl.replace t.nodes id
    { id; name; sink = None; link_watcher = None; idx = Itbl.length t.nodes }

let node t id =
  match Itbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Netsim: unknown node %d" id)

let mem_node t id = Itbl.mem t.nodes id

let node_name t id = (node t id).name

let node_ids t = Itbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort Int.compare

let set_handler t id h = (node t id).sink <- Some (Handler h)

let attach t id port = (node t id).sink <- Some (Port port)

let attached_node t id =
  match (node t id).sink with Some (Port p) -> Some (Engine.Node.port_node p) | _ -> None

let set_link_watcher t id w = (node t id).link_watcher <- Some w

let add_link ?(delay = Engine.Time.ms 2) ?(loss = 0.0) ?bandwidth_bps ?queue_limit t u v =
  let nu = node t u and nv = node t v in
  let key = pair_key nu nv in
  if Itbl.mem t.pairs key then
    invalid_arg (Fmt.str "Netsim.add_link: duplicate link %d<->%d" u v);
  let id = t.next_link_id in
  t.next_link_id <- id + 1;
  let link = Link.make ?bandwidth_bps ?queue_limit ~id ~a:u ~b:v ~delay ~loss () in
  Itbl.replace t.links id link;
  Itbl.replace t.pairs key link;
  link

let link_between t u v =
  match (Itbl.find_opt t.nodes u, Itbl.find_opt t.nodes v) with
  | Some nu, Some nv -> Itbl.find_opt t.pairs (pair_key nu nv)
  | _ -> None

let links t =
  Itbl.fold (fun _ l acc -> l :: acc) t.links []
  |> List.sort (fun a b -> Int.compare (Link.id a) (Link.id b))

let neighbors t id =
  List.filter_map
    (fun l ->
      let a, b = Link.endpoints l in
      if a = id then Some b else if b = id then Some a else None)
    (links t)

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

let drop t link reason =
  Link.note_dropped link;
  note_drop t reason

let drops t reason = Option.value ~default:0 (Hashtbl.find_opt t.drop_counts reason)

let deliver t link ~src (dst : _ node) payload =
  if not (Link.is_up link) then drop t link Link_down
  else if Link.loss link > 0.0 && Engine.Rng.chance t.rng (Link.loss link) then
    drop t link Loss
  else begin
    match dst.sink with
    | None -> drop t link No_handler
    | Some (Handler h) ->
      Link.note_delivered link;
      Engine.Metrics.Counter.inc t.delivered_c;
      h ~from:src payload
    | Some (Port p) ->
      if not (Engine.Node.is_up (Engine.Node.port_node p)) then drop t link Node_down
      else begin
        Link.note_delivered link;
        Engine.Metrics.Counter.inc t.delivered_c;
        if not (Engine.Node.deliver p ~from:src payload) then drop t link Queue
      end
  end

(* [size_bits] matters only on bandwidth-limited links, where it adds
   serialization delay and FIFO queuing (drop-tail when the direction's
   queue is full). *)
let send ?(size_bits = 8 * 64) t ~src ~dst payload =
  match link_between t src dst with
  | None -> false
  | Some link when not (Link.is_up link) -> false
  | Some link -> (
    match Link.admit link ~now:(Engine.Sim.now t.sim) ~dst ~size_bits with
    | None ->
      drop t link Queue;
      true (* accepted by the sender, lost in the queue *)
    | Some delivery_at ->
      Engine.Metrics.Counter.inc t.sent_c;
      let dst_node = node t dst in
      ignore
        (Engine.Sim.schedule_at ~category:"net.deliver" t.sim delivery_at (fun () ->
             deliver t link ~src dst_node payload));
      true)

(* Current topology restricted to links that are up. *)
let up_graph t =
  let g = Graph.create () in
  List.iter (fun id -> Graph.add_node g id) (node_ids t);
  List.iter
    (fun l ->
      if Link.is_up l then begin
        let a, b = Link.endpoints l in
        Graph.add_edge g a b
      end)
    (links t);
  g
