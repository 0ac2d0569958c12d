(* The node actor runtime.

   Every emulated component (router, switch, speaker, controller,
   collector) sits on one of these: a lifecycle state machine, a bounded
   ingress mailbox with drop accounting, owned timers that die with the
   node and epoch-guarded event scheduling.

   Two invariants keep the runtime behaviour-preserving for runs that
   never crash a node:

   - Delivery through a port to an idle node is the direct handler call
     itself: no closure, no queue cell.  The queue only holds messages
     delivered re-entrantly while a handler runs (drained in arrival
     order before the outermost delivery returns), which the previous
     closure wiring could not express at all.

   - Metric series (mailbox drops, lifecycle transitions) are registered
     lazily on first increment, so a run that never drops or crashes
     exports byte-identical metrics to the pre-runtime code. *)

type lifecycle = Created | Up | Down

type t = {
  sim : Sim.t;
  name : string;
  kind : string;
  mailbox_capacity : int;
  mailbox : (unit -> unit) Queue.t;
  mutable draining : bool;
  mutable lifecycle : lifecycle;
  mutable epoch : int;
  mutable timers : Timer.t list; (* reverse adoption order *)
  mutable start_hooks : (first:bool -> unit) list; (* reverse order *)
  mutable crash_hooks : (unit -> unit) list; (* reverse order *)
  mutable dropped : int;
  mutable processed : int;
  mutable crashes : int;
  mutable drop_counter : Metrics.Counter.t option;
}

type 'msg port = { node : t; handler : from:int -> 'msg -> unit }

let create ?(kind = "node") ?(mailbox_capacity = 4096) sim ~name =
  if mailbox_capacity <= 0 then invalid_arg "Node.create: mailbox_capacity must be positive";
  {
    sim;
    name;
    kind;
    mailbox_capacity;
    mailbox = Queue.create ();
    draining = false;
    lifecycle = Created;
    epoch = 0;
    timers = [];
    start_hooks = [];
    crash_hooks = [];
    dropped = 0;
    processed = 0;
    crashes = 0;
    drop_counter = None;
  }

let sim t = t.sim
let name t = t.name
let kind t = t.kind
let lifecycle t = t.lifecycle
let is_up t = t.lifecycle = Up
let epoch t = t.epoch
let mailbox_depth t = Queue.length t.mailbox
let mailbox_dropped t = t.dropped
let processed t = t.processed
let crashes t = t.crashes

let pp_lifecycle fmt = function
  | Created -> Format.pp_print_string fmt "created"
  | Up -> Format.pp_print_string fmt "up"
  | Down -> Format.pp_print_string fmt "down"

(* Lazily registered so crash-free runs export unchanged metrics. *)
let bump_lifecycle_counter t transition =
  let c =
    Metrics.counter (Sim.metrics t.sim)
      ~help:"node lifecycle transitions"
      ~labels:[ ("kind", t.kind); ("transition", transition) ]
      "node_lifecycle_transitions_total"
  in
  Metrics.Counter.inc c

let bump_drop_counter t =
  let c =
    match t.drop_counter with
    | Some c -> c
    | None ->
        let c =
          Metrics.counter (Sim.metrics t.sim)
            ~help:"messages refused by full node mailboxes"
            ~labels:[ ("kind", t.kind) ]
            "node_mailbox_dropped_total"
        in
        t.drop_counter <- Some c;
        c
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
      Queue.clear t.mailbox;
      t.draining <- false;
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

let schedule_at ?category t at f =
  ignore (Sim.schedule_at ?category t.sim at (guarded t f))

let schedule_after ?category t span f =
  ignore (Sim.schedule_after ?category t.sim span (guarded t f))

(* Mailbox.  An idle node (not draining, nothing queued) handles the
   message with a direct handler call; messages delivered re-entrantly
   while it runs are queued and drained, in arrival order, before the
   outermost delivery returns.  A raising handler propagates its
   exception with the node idle again, and anything still queued is
   handled at the front of the next delivery. *)
let rec drain_queue t =
  if not (Queue.is_empty t.mailbox) then begin
    let work = Queue.pop t.mailbox in
    t.processed <- t.processed + 1;
    work ();
    drain_queue t
  end

(* [t.draining] is set; clear it however the handlers end. *)
let finish_drain t =
  match drain_queue t with
  | () -> t.draining <- false
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.draining <- false;
    Printexc.raise_with_backtrace e bt

let port node ~handler = { node; handler }
let port_node p = p.node

let deliver p ~from msg =
  let t = p.node in
  if not (is_up t) then false
  else if Queue.length t.mailbox >= t.mailbox_capacity then begin
    t.dropped <- t.dropped + 1;
    bump_drop_counter t;
    false
  end
  else if t.draining || not (Queue.is_empty t.mailbox) then begin
    (* re-entrant, or behind messages a raising handler left queued *)
    Queue.push (fun () -> p.handler ~from msg) t.mailbox;
    Sim.mark t.sim ~category:"node.deliver" ~node:t.name ~render:string_of_int from;
    if not t.draining then begin
      t.draining <- true;
      finish_drain t
    end;
    true
  end
  else begin
    Sim.mark t.sim ~category:"node.deliver" ~node:t.name ~render:string_of_int from;
    t.draining <- true;
    t.processed <- t.processed + 1;
    (match p.handler ~from msg with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.draining <- false;
      Printexc.raise_with_backtrace e bt);
    finish_drain t;
    true
  end
