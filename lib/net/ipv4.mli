(** IPv4 addresses and prefixes, plus the sequential subnet allocator used
    for automatic address assignment. *)

type addr

type prefix

val compare_addr : addr -> addr -> int
(** Unsigned comparison. *)

val equal_addr : addr -> addr -> bool

val addr_of_int32 : int32 -> addr

val addr_of_octets : int -> int -> int -> int -> addr

val octets : addr -> int * int * int * int

val pp_addr : Format.formatter -> addr -> unit

val addr_to_string : addr -> string
(** [Fmt.str "%a" pp_addr], without going through Format. *)

val addr_of_string : string -> addr option

val addr_to_bits : addr -> int
(** The address's 32 bits as a non-negative int (allocation-free: the
    underlying [Int32.to_int] returns an immediate).  The int encoding
    the data-plane fast path forwards instead of boxed addresses. *)

val addr_of_bits : int -> addr
(** Inverse of {!addr_to_bits} (boxes; build/edge use only). *)

val mask_bits : int -> int
(** [mask_bits len] is the network mask of a /len prefix in the
    {!addr_to_bits} int encoding — so prefix membership on the fast path
    is [bits land mask_bits len = addr_to_bits network], with no Int32
    boxing. *)

val prefix : addr -> int -> prefix
(** [prefix a len] normalizes [a] to its network address.
    @raise Invalid_argument if [len] is outside [0..32]. *)

val prefix_len : prefix -> int

val prefix_network : prefix -> addr

val compare_prefix : prefix -> prefix -> int

val equal_prefix : prefix -> prefix -> bool

val mem : addr -> prefix -> bool

val subsumes : outer:prefix -> inner:prefix -> bool
(** [subsumes ~outer ~inner] iff every address of [inner] is in [outer]. *)

val pp_prefix : Format.formatter -> prefix -> unit

val prefix_to_string : prefix -> string
(** [Fmt.str "%a" pp_prefix], without going through Format. *)

val prefix_to_packed : prefix -> int
(** The prefix as one immediate int (network bits and length); with
    {!packed_prefix_to_string} the allocation-free label of a causal
    marker.  Packed order is [compare_prefix] order. *)

val prefix_of_packed : int -> prefix
(** Inverse of {!prefix_to_packed}. *)

val packed_prefix_to_string : int -> string
(** [packed_prefix_to_string (prefix_to_packed p) = prefix_to_string p]. *)

val prefix_of_string : string -> prefix option
(** Accepts ["10.0.0.0/8"] and bare addresses (as /32). *)

val nth_host : prefix -> int -> addr
(** [nth_host p n] is the [n]-th address of [p] (0 = network address).
    @raise Invalid_argument unless [0 <= n < 2^(32 - len)]. *)

(** Mutable exact-match table keyed on {!prefix_to_packed}, for owners
    that never need longest-prefix match (the RIBs, the speaker, the
    collector) and the one open-addressed table under {!Fib}.  Its
    arrays are allocated on the first insert, so an unused table costs a
    three-field record.  Every ordered read sorts the packed keys, so
    iteration is [compare_prefix] ascending.  Not domain-safe. *)
module Prefix_table : sig
  type 'a t

  val create : unit -> 'a t

  val size : 'a t -> int
  (** O(1). *)

  val is_empty : 'a t -> bool

  val find : prefix -> 'a t -> 'a option

  val mem : prefix -> 'a t -> bool

  val set : prefix -> 'a -> 'a t -> unit
  (** Insert or replace the entry for exactly this prefix. *)

  val remove : prefix -> 'a t -> unit
  (** No-op when absent. *)

  val clear : 'a t -> unit

  val entries : 'a t -> (prefix * 'a) list
  (** Ascending [compare_prefix] order. *)

  val keys : 'a t -> prefix list
  (** Ascending [compare_prefix] order. *)

  (** {2 Slots}

      Allocation-free access by packed prefix.  A slot is an index that
      stays valid until the next {!add} or {!remove_slot}. *)

  val slot : 'a t -> int -> int
  (** The slot holding this packed prefix, or [-1]. *)

  val add : 'a t -> int -> 'a -> int
  (** Insert an absent packed prefix; returns its slot. *)

  val remove_slot : 'a t -> int -> unit

  val value : 'a t -> int -> 'a

  val set_value : 'a t -> int -> 'a -> unit

  val packed_at : 'a t -> int -> int
  (** The packed prefix in a slot. *)

  val sorted_slots : 'a t -> int array
  (** A fresh array of the occupied slots in ascending prefix order;
      valid as long as the slots are. *)
end

module Prefix_map : Map.S with type key = prefix

module Prefix_set : Set.S with type elt = prefix
