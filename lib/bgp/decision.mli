(** The BGP decision process: a deterministic total order on candidate
    routes for the same prefix. *)

val compare : Route.t -> Route.t -> int
(** Negative when the first route is preferred. *)

val better : Route.t -> Route.t -> bool

val select : Route.t list -> Route.t option
(** The most preferred candidate. *)

