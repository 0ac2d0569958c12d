(** Delayed, batched best-path recomputation: dirty-marking coalesces
    bursts of external BGP input; a zero delay recomputes immediately. *)

type t

val create :
  sim:Engine.Sim.t ->
  delay:Engine.Time.span ->
  callback:(Net.Ipv4.prefix list -> unit) ->
  t

val mark_dirty : t -> Net.Ipv4.prefix -> unit

val flush_now : t -> unit
(** Recompute everything dirty immediately (cancels the pending timer). *)

val reset : t -> unit
(** Forget the dirty set and cancel the pending batch (controller crash). *)

val pending : t -> int
