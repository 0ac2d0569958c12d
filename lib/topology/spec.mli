(** Declarative topology description: ASes, relationship-annotated links,
    and the SDN/legacy role split. *)

type role = Legacy | Sdn

(** Relationship of link endpoint [a] towards endpoint [b]. *)
type rel =
  | C2p  (** [a] is customer of [b] *)
  | P2p  (** settlement-free peers *)
  | S2s  (** siblings (mutual full transit) *)
  | Open  (** no policy — full propagation (clique experiments) *)

type node_spec = { asn : Net.Asn.t; role : role; name : string }

type link_spec = { a : Net.Asn.t; b : Net.Asn.t; rel : rel; delay_us : int option }

type t

val node : ?role:role -> ?name:string -> Net.Asn.t -> node_spec

val link : ?rel:rel -> ?delay_us:int -> Net.Asn.t -> Net.Asn.t -> link_spec

val make : title:string -> nodes:node_spec list -> links:link_spec list -> t

val title : t -> string

val nodes : t -> node_spec list

val links : t -> link_spec list

val asns : t -> Net.Asn.t list

val node_count : t -> int

val link_count : t -> int

(** {1 The topology index}

    Every spec carries an index built once, in time linear in ASes +
    links, when the spec is made ({!with_sdn} shares it): AS membership
    and ordinals, each AS's links in link-list order, and each link keyed
    by its endpoints.  The lookups below are O(1) (O(degree) for the
    list-building ones). *)

val find_node : t -> Net.Asn.t -> node_spec option

val mem : t -> Net.Asn.t -> bool

val ordinal : t -> Net.Asn.t -> int option
(** The AS's position in {!nodes} (the first, if listed twice). *)

val sdn_asns : t -> Net.Asn.t list

val legacy_asns : t -> Net.Asn.t list

val role_of : t -> Net.Asn.t -> role

val with_sdn : t -> Net.Asn.t list -> t
(** Mark exactly the given ASes as SDN-controlled. *)

val links_of : t -> Net.Asn.t -> link_spec list
(** The AS's links, in {!links} order. *)

val neighbors : t -> Net.Asn.t -> Net.Asn.t list
(** The other end of each of {!links_of}, in that order. *)

val other_end : me:Net.Asn.t -> link_spec -> Net.Asn.t
(** The endpoint of a link of [me] that is not [me]. *)

val degree : t -> Net.Asn.t -> int

val iter_links_of : t -> Net.Asn.t -> (link_spec -> unit) -> unit
(** {!links_of} without building the list. *)

(** A neighbor's role relative to a given AS. *)
type neighbor_role = Customer | Provider | Peer | Sibling | Unrestricted

val neighbor_role_to_string : neighbor_role -> string

val neighbor_role_of_link : me:Net.Asn.t -> link_spec -> neighbor_role

val neighbor_role : t -> me:Net.Asn.t -> neighbor:Net.Asn.t -> neighbor_role option
(** [neighbor]'s role seen from [me], by {!link_between}; [None] when
    they share no link. *)

val validate : t -> string list
(** Structural problems; empty when valid. *)

val is_valid : t -> bool

val is_connected : t -> bool
