(* Point-to-point links between emulated network devices. *)

type id = int

type t = {
  id : id;
  a : int;
  b : int;
  delay : Engine.Time.span;
  mutable up : bool;
  mutable loss : float;
}

let make ~id ~a ~b ~delay ~loss =
  if a = b then invalid_arg "Link.make: self-link";
  if loss < 0.0 || loss > 1.0 then invalid_arg "Link.make: loss out of [0,1]";
  { id; a; b; delay; up = true; loss }

let id t = t.id

let endpoints t = (t.a, t.b)

let is_up t = t.up

let delay t = t.delay

let loss t = t.loss

let set_loss t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Link.set_loss";
  t.loss <- p

(* State changes go through Netsim so endpoint watchers are notified. *)
let set_up_internal t up = t.up <- up
