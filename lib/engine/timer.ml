(* Restartable one-shot timer on top of the scheduler.

   This is the shape both BGP MRAI timers and the controller's delayed
   recomputation need: arm, coalesce while armed, cancel, fire once. *)

type t = {
  sim : Sim.t;
  category : string;
  callback : unit -> unit;
  mutable armed : Sim.handle option;
}

let create ?(category = "timer") sim ~callback = { sim; category; callback; armed = None }

let is_armed t =
  match t.armed with
  | None -> false
  | Some h -> not (Sim.cancelled h)

let cancel t =
  (match t.armed with Some h -> Sim.cancel h | None -> ());
  t.armed <- None

let fire t () =
  t.armed <- None;
  t.callback ()

let start t span =
  cancel t;
  t.armed <- Some (Sim.schedule_after ~category:t.category t.sim span (fire t))

let start_if_idle t span = if not (is_armed t) then start t span
