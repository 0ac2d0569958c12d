(** Relationship-based (Gao–Rexford) BGP policy: a peering's policy is
    its business relationship. *)

type relationship = Customer | Provider | Peer | Sibling | Unrestricted

type t = relationship

val relationship_to_string : relationship -> string

val import : t -> Attrs.t -> Attrs.t
(** The attrs of an accepted route as stored: the relationship's
    local-pref stamped (Customer 130 > Sibling 120 > Peer 110 >
    Unrestricted 100 > Provider 90). *)

type route_provenance = From of relationship | Originated

val export_allowed : to_rel:relationship -> provenance:route_provenance -> bool
(** The valley-free export predicate. *)

val learned_from : relationship -> route_provenance
(** [From rel], as a shared constant. *)
