(** The emulated network fabric: nodes, links and delayed message delivery,
    parametric in the protocol message type. *)

type 'a handler = from:int -> 'a -> unit

type link_watcher = link:Link.t -> peer:int -> up:bool -> unit

type drop_reason = Link_down | Loss | Queue | No_handler | Node_down | Session_down
(** Why a delivery was silently dropped: link down at delivery time,
    probabilistic loss, queue overflow (link drop-tail or node mailbox),
    no receiver attached, receiver node crashed, or discarded by a
    protocol layer because the session/control channel it belongs to is
    down (accounted via {!note_drop}). *)

val drop_reason_label : drop_reason -> string
(** The [reason] label value used on
    [net_messages_dropped_total{reason=...}]. *)

type 'a t

val create : Engine.Sim.t -> 'a t

val sim : 'a t -> Engine.Sim.t

val add_node : 'a t -> id:int -> name:string -> unit
(** @raise Invalid_argument on duplicate ids. *)

val mem_node : 'a t -> int -> bool

val node_name : 'a t -> int -> string

val node_ids : 'a t -> int list
(** Sorted ascending. *)

val set_handler : 'a t -> int -> 'a handler -> unit
(** Install a raw handler closure (nodes without any sink drop traffic).
    Lifecycle-blind — prefer {!attach}. *)

val attach : 'a t -> int -> 'a Engine.Node.port -> unit
(** Attach an [Engine.Node] mailbox port as the node's sink: deliveries to
    a crashed node are dropped (reason [Node_down]) and mailbox overflow
    is dropped (reason [Queue]) instead of being handed to stale state. *)

val attached_node : 'a t -> int -> Engine.Node.t option
(** The runtime node behind a {!attach}ed sink, if any. *)

val set_link_watcher : 'a t -> int -> link_watcher -> unit
(** Called when an adjacent link changes state. *)

val add_link :
  ?delay:Engine.Time.span ->
  ?loss:float ->
  ?bandwidth_bps:int ->
  ?queue_limit:int ->
  'a t ->
  int ->
  int ->
  Link.t
(** At most one link per node pair.  [bandwidth_bps] enables serialization
    delay and drop-tail queuing (see {!Link.admit}).
    @raise Invalid_argument on duplicates or unknown nodes. *)

val link_between : 'a t -> int -> int -> Link.t option

val links : 'a t -> Link.t list
(** Sorted by link id. *)

val neighbors : 'a t -> int -> int list

val set_link_up : 'a t -> Link.t -> bool -> unit
(** Flip link state and notify both endpoints' watchers.  Messages already
    in flight on a failing link are dropped at delivery time. *)

val fail_link_between : 'a t -> int -> int -> bool
(** [false] if no such link exists. *)

val recover_link_between : 'a t -> int -> int -> bool

val send : ?size_bits:int -> 'a t -> src:int -> dst:int -> 'a -> bool
(** Queue a message for delivery after the link's (queuing +
    serialization +) propagation delay; [false] when there is no up link
    between the nodes.  [size_bits] (default 512) only matters on
    bandwidth-limited links; a drop-tail loss still returns [true] — the
    sender cannot tell. *)

val drops : 'a t -> drop_reason -> int
(** Messages dropped for [reason] since creation. *)

val note_drop : 'a t -> drop_reason -> unit
(** Account a drop that never reached a wire (protocol-layer discard,
    e.g. a BGP relay thrown away while its session is down). *)

val up_graph : 'a t -> Graph.t
(** Snapshot of the topology restricted to links that are currently up. *)
