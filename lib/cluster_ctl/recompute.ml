(* Delayed best-path recomputation.

   The paper's second design insight: recomputing on every external BGP
   input destabilizes the cluster during update bursts (which is exactly
   what convergence events produce), so the controller marks prefixes
   dirty and recomputes them in one batch after a delay, rate-limiting
   route flaps.  A zero delay degenerates to immediate recomputation (the
   ablation baseline). *)

type t = {
  delay : Engine.Time.span;
  mutable dirty : Net.Ipv4.Prefix_set.t;
  timer : Engine.Timer.t;
  coalesced_c : Engine.Metrics.Counter.t;
  callback : Net.Ipv4.prefix list -> unit;
}

let fire t () =
  let prefixes = Net.Ipv4.Prefix_set.elements t.dirty in
  t.dirty <- Net.Ipv4.Prefix_set.empty;
  if prefixes <> [] then t.callback prefixes

let create ~sim ~delay ~callback =
  let self = ref None in
  let timer =
    Engine.Timer.create ~category:"ctrl.recompute" sim
      ~callback:(fun () -> match !self with Some t -> fire t () | None -> ())
  in
  let t =
    {
      delay;
      dirty = Net.Ipv4.Prefix_set.empty;
      timer;
      coalesced_c =
        Engine.Metrics.counter (Engine.Sim.metrics sim)
          ~help:"dirty marks absorbed by an already-armed recompute timer"
          "controller_recompute_coalesced_total";
      callback;
    }
  in
  self := Some t;
  t

let mark_dirty t prefix =
  t.dirty <- Net.Ipv4.Prefix_set.add prefix t.dirty;
  if Engine.Time.equal t.delay Engine.Time.zero then fire t ()
  else if Engine.Timer.is_armed t.timer then
    Engine.Metrics.Counter.inc t.coalesced_c
  else Engine.Timer.start_if_idle t.timer t.delay

let flush_now t =
  Engine.Timer.cancel t.timer;
  fire t ()

let reset t =
  t.dirty <- Net.Ipv4.Prefix_set.empty;
  Engine.Timer.cancel t.timer

let pending t = Net.Ipv4.Prefix_set.cardinal t.dirty
