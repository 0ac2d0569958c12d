(** The node actor runtime: the uniform lifecycle every emulated
    component (BGP router, SDN switch, cluster speaker/controller, route
    collector) runs on.

    A node owns:
    - a lifecycle state machine [Created -> Up -> Down -> Up -> ...] with
      [crash]/[restart] transitions and registered hooks;
    - typed ingress ports ({!port}) that refuse deliveries while the node
      is down;
    - its timers, auto-cancelled when the node crashes;
    - epoch-guarded scheduling: events scheduled through the node are
      silently discarded if the node crashed after they were scheduled.

    The runtime is deliberately behaviour-preserving: when no lifecycle
    action is taken, delivery through a port is the same synchronous
    handler call a raw closure would have made, no extra RNG draws are
    taken and no metric series are registered until a lifecycle
    transition actually happens. *)

type lifecycle = Created | Up | Down

type t

val create : ?kind:string -> Sim.t -> name:string -> t
(** [kind] labels the component family ("router", "switch", "speaker",
    "controller", "collector"). *)

val sim : t -> Sim.t

val name : t -> string

val trace_node : t -> int
(** [name]'s causal-store index ({!Sim.trace_node}), resolved at
    {!create}: the [~node] of the component's {!Sim.mark} calls. *)

val is_up : t -> bool

val epoch : t -> int
(** Incremented by every crash; epoch-guarded events compare against it. *)

(** {1 Lifecycle} *)

val on_start : t -> (first:bool -> unit) -> unit
(** Hook run on [Created -> Up] ([first = true]) and on every restart
    ([first = false]); registration order is execution order. *)

val on_crash : t -> (unit -> unit) -> unit
(** Hook run on [Up -> Down], after owned timers are cancelled. *)

val start : t -> unit
(** [Created | Down -> Up]; no-op when already up. *)

val crash : t -> unit
(** [Up -> Down]: bump the epoch, cancel owned timers, run the crash
    hooks.  No-op unless up.  While down, port deliveries are refused
    and guarded events do not fire. *)

val restart : t -> unit
(** [crash] (if up) followed by [start]: the component's restart hooks
    see a process that lost all volatile state. *)

(** {1 Owned timers} *)

val timer : ?category:string -> t -> callback:(unit -> unit) -> Timer.t
(** Create a timer owned by this node (cancelled on crash). *)

(** {1 Epoch-guarded scheduling} *)

val schedule_after : ?category:string -> t -> Time.span -> (unit -> unit) -> unit
(** Like {!Sim.schedule_after} but the action is skipped if the node
    crashed (epoch changed) or is down when the event fires. *)

(** {1 Typed ports} *)

type 'msg port
(** A typed ingress into the node. *)

val port : t -> handler:(from:int -> 'msg -> unit) -> 'msg port

val port_node : 'msg port -> t

val deliver : 'msg port -> from:int -> 'msg -> bool
(** [false] when the node is not up; otherwise mark a [node.deliver]
    event and call the handler now.  A handler's exception propagates
    and leaves the node accepting the next delivery. *)

val crashes : t -> int
