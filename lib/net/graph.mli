(** Weighted graph over integer node ids, with deterministic traversal
    order (adjacency sorted by node id). *)

type t

val create : ?directed:bool -> unit -> t
(** Undirected by default. *)

val version : t -> int
(** Monotone structural-mutation counter: bumped by every
    [add_node]/[add_edge]/[remove_edge] that changes
    the graph.  Cache derived structures keyed on it. *)

val add_node : t -> int -> unit

val mem_node : t -> int -> bool

val nodes : t -> int list
(** Sorted ascending. *)

val node_count : t -> int

val edge_count : t -> int

val neighbors : t -> int -> (int * float) list
(** Sorted by neighbor id; empty for unknown nodes. *)

val succ : t -> int -> int list

val weight : t -> int -> int -> float option

val mem_edge : t -> int -> int -> bool

val add_edge : ?w:float -> t -> int -> int -> unit
(** Adds endpoints as needed; replaces the weight of an existing edge.
    @raise Invalid_argument on self-loops. *)

val remove_edge : t -> int -> int -> unit

val edges : t -> (int * int * float) list
(** Each undirected edge once (u < v), sorted. *)

val copy : t -> t

val components : t -> int list list
(** Connected components (undirected view), each sorted. *)

val is_connected : t -> bool
