(** Longest-prefix-match forwarding table (an {!Ipv4.Prefix_table}),
    generic in the entry type.  Not domain-safe; each table is owned by one
    switch. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
(** O(1). *)

val insert : 'a t -> Ipv4.prefix -> 'a -> unit
(** Replaces any existing entry for exactly this prefix. *)

val find : 'a t -> Ipv4.prefix -> 'a option
(** Exact-prefix lookup. *)

val remove : 'a t -> Ipv4.prefix -> unit
(** No-op when absent. *)

val lookup : 'a t -> Ipv4.addr -> (Ipv4.prefix * 'a) option
(** Longest-prefix match for an address: one exact probe per prefix
    length in use, longest first. *)

val lookup_value : 'a t -> Ipv4.addr -> 'a option

val entries : 'a t -> (Ipv4.prefix * 'a) list
(** Ascending [Ipv4.compare_prefix] order. *)

val clear : 'a t -> unit

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** In {!entries} order, each prefix as {!Ipv4.prefix_to_packed};
    allocates nothing per entry.  [f] must not modify the table. *)
