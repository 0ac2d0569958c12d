(** Longest-prefix-match forwarding table (binary trie), generic in the
    entry type. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val insert : 'a t -> Ipv4.prefix -> 'a -> unit
(** Replaces any existing entry for exactly this prefix. *)

val find : 'a t -> Ipv4.prefix -> 'a option
(** Exact-prefix lookup. *)

val remove : 'a t -> Ipv4.prefix -> unit

val lookup : 'a t -> Ipv4.addr -> (Ipv4.prefix * 'a) option
(** Longest-prefix match for an address. *)

val lookup_value : 'a t -> Ipv4.addr -> 'a option

val entries : 'a t -> (Ipv4.prefix * 'a) list
(** Sorted by prefix. *)

val clear : 'a t -> unit

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** In {!entries} order, each prefix as {!Ipv4.prefix_to_packed};
    allocates nothing per entry. *)
