(* The node actor runtime.

   Every emulated component (router, switch, speaker, controller,
   collector) sits on one of these: a lifecycle state machine, typed
   ingress ports that refuse traffic while the node is down, owned timers
   that die with the node and epoch-guarded event scheduling.

   Two invariants keep the runtime behaviour-preserving for runs that
   never crash a node:

   - Delivery through a port to an up node is the direct handler call
     itself: no closure, no queue cell.  The fabric delivers every
     message from its own scheduled event, so a delivery never re-enters
     a running handler.

   - Lifecycle-transition metric series are registered lazily on first
     increment, so a run that never crashes exports byte-identical
     metrics to the pre-runtime code. *)

type lifecycle = Created | Up | Down

type t = {
  sim : Sim.t;
  name : string;
  trace : int; (* [name]'s index in the causal store *)
  kind : string;
  mutable lifecycle : lifecycle;
  mutable epoch : int;
  mutable timers : Timer.t list; (* reverse adoption order *)
  mutable start_hooks : (first:bool -> unit) list; (* reverse order *)
  mutable crash_hooks : (unit -> unit) list; (* reverse order *)
  mutable crashes : int;
}

type 'msg port = { node : t; handler : from:int -> 'msg -> unit }

let create ?(kind = "node") sim ~name =
  {
    sim;
    name;
    trace = Sim.trace_node sim name;
    kind;
    lifecycle = Created;
    epoch = 0;
    timers = [];
    start_hooks = [];
    crash_hooks = [];
    crashes = 0;
  }

let sim t = t.sim
let name t = t.name
let trace_node t = t.trace
let is_up t = t.lifecycle = Up
let epoch t = t.epoch
let crashes t = t.crashes

(* Lazily registered so crash-free runs export unchanged metrics. *)
let bump_lifecycle_counter t transition =
  let c =
    Metrics.counter (Sim.metrics t.sim)
      ~help:"node lifecycle transitions"
      ~labels:[ ("kind", t.kind); ("transition", transition) ]
      "node_lifecycle_transitions_total"
  in
  Metrics.Counter.inc c

let on_start t f = t.start_hooks <- f :: t.start_hooks
let on_crash t f = t.crash_hooks <- f :: t.crash_hooks

let start t =
  match t.lifecycle with
  | Up -> ()
  | (Created | Down) as prev ->
      t.lifecycle <- Up;
      let first = prev = Created in
      if not first then bump_lifecycle_counter t "start";
      List.iter (fun f -> f ~first) (List.rev t.start_hooks)

let crash t =
  match t.lifecycle with
  | Created | Down -> ()
  | Up ->
      t.lifecycle <- Down;
      t.epoch <- t.epoch + 1;
      t.crashes <- t.crashes + 1;
      bump_lifecycle_counter t "crash";
      List.iter Timer.cancel t.timers;
      List.iter (fun f -> f ()) (List.rev t.crash_hooks)

let restart t =
  crash t;
  start t

let own_timer t timer = t.timers <- timer :: t.timers

let timer ?category t ~callback =
  let tm = Timer.create ?category t.sim ~callback in
  own_timer t tm;
  tm

let guarded t f =
  let epoch_at_schedule = t.epoch in
  fun () -> if t.epoch = epoch_at_schedule && is_up t then f ()

let schedule_after ?category t span f =
  ignore (Sim.schedule_after ?category t.sim span (guarded t f))

let port node ~handler = { node; handler }
let port_node p = p.node

let deliver p ~from msg =
  let t = p.node in
  if not (is_up t) then false
  else begin
    Sim.mark t.sim ~category:"node.deliver" ~node:t.trace ~render:string_of_int from;
    p.handler ~from msg;
    true
  end
