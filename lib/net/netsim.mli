(** The emulated network fabric: nodes, links and delayed message delivery,
    parametric in the protocol message type. *)

type link_watcher = link:Link.t -> peer:int -> up:bool -> unit

type drop_reason = Link_down | Loss | No_handler | Node_down | Session_down
(** Why a delivery was silently dropped: link down at delivery time,
    probabilistic loss, no receiver attached, receiver node crashed, or
    discarded by a protocol layer because the session/control channel it
    belongs to is down (accounted via {!note_drop}). *)

type 'a t

val create : Engine.Sim.t -> 'a t

val add_node : 'a t -> id:int -> unit
(** @raise Invalid_argument on duplicate ids. *)

val attach : 'a t -> int -> 'a Engine.Node.port -> unit
(** Attach an [Engine.Node] port as the node's receiver: deliveries to a
    crashed node are dropped (reason [Node_down]) instead of being handed
    to stale state.  Nodes with no port attached drop their traffic
    (reason [No_handler]). *)

val attached_node : 'a t -> int -> Engine.Node.t option
(** The runtime node behind the {!attach}ed port, if any. *)

val set_link_watcher : 'a t -> int -> link_watcher -> unit
(** Called when an adjacent link changes state. *)

val add_link : ?delay:Engine.Time.span -> ?loss:float -> 'a t -> int -> int -> Link.t
(** At most one link per node pair.
    @raise Invalid_argument on duplicates or unknown nodes. *)

val link_between : 'a t -> int -> int -> Link.t option

val links : 'a t -> Link.t list
(** Sorted by link id. *)

val iter_links : 'a t -> (Link.t -> unit) -> unit
(** Every link, in link id order; allocates nothing. *)

val set_link_up : 'a t -> Link.t -> bool -> unit
(** Flip link state and notify both endpoints' watchers.  Messages already
    in flight on a failing link are dropped at delivery time. *)

val fail_link_between : 'a t -> int -> int -> bool
(** [false] if no such link exists. *)

val recover_link_between : 'a t -> int -> int -> bool

val send : 'a t -> src:int -> dst:int -> 'a -> bool
(** Schedule one delivery after the link's propagation delay; [false]
    when there is no up link between the nodes.  At delivery time the
    link-up, loss and node-up checks run, then the receiver's handler. *)

val drops : 'a t -> drop_reason -> int
(** Messages dropped for [reason] since creation. *)

val note_drop : 'a t -> drop_reason -> unit
(** Account a drop that never reached a wire (protocol-layer discard,
    e.g. a BGP relay thrown away while its session is down). *)
