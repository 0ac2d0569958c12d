(** Point-to-point links between emulated network devices. *)

type id = int

type t

val make : id:id -> a:int -> b:int -> delay:Engine.Time.span -> loss:float -> t
(** @raise Invalid_argument on self-links or loss outside [0,1]. *)

val id : t -> id

val endpoints : t -> int * int

val is_up : t -> bool

val delay : t -> Engine.Time.span

val loss : t -> float

val set_loss : t -> float -> unit

val set_up_internal : t -> bool -> unit
(** Raw state flip — use {!Netsim.set_link_up} so watchers are notified. *)
