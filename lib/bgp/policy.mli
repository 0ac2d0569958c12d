(** Relationship-based (Gao–Rexford) BGP policy templates. *)

type relationship = Customer | Provider | Peer | Sibling | Unrestricted

val relationship_to_string : relationship -> string

val default_local_pref : relationship -> int
(** Customer 130 > Sibling 120 > Peer 110 > Unrestricted 100 > Provider 90. *)

type t

val make :
  ?local_pref:int ->
  ?import_prefix_filter:(Net.Ipv4.prefix -> bool) ->
  ?export_prefix_filter:(Net.Ipv4.prefix -> bool) ->
  ?import_community:Community.t ->
  ?export_prepend:int ->
  relationship ->
  t
(** [export_prepend] adds that many extra own-ASN prepends toward the
    neighbor — the standard inbound traffic-engineering knob. *)

val relationship : t -> relationship

val local_pref : t -> int

val export_prepend : t -> int

val accepts : t -> me:Net.Asn.t -> prefix:Net.Ipv4.prefix -> Attrs.t -> bool
(** The import filter: [false] when the AS path holds [me], the prefix
    filter rejects the prefix, or the route carries NO_ADVERTISE. *)

val import : t -> Attrs.t -> Attrs.t
(** The attrs of an accepted route as stored: local-pref stamped and the
    provenance community added. *)

type route_provenance = From of relationship | Originated

val export_allowed : to_rel:relationship -> provenance:route_provenance -> bool
(** The valley-free export predicate. *)

val learned_from : relationship -> route_provenance
(** [From rel], as a shared constant. *)

val exports : t -> provenance:route_provenance -> prefix:Net.Ipv4.prefix -> Attrs.t -> bool
(** The export predicate toward a neighbor governed by [t]: valley-free
    rule, prefix filter, NO_EXPORT/NO_ADVERTISE.  It reads only the
    route's communities, so it may be asked with the route's own attrs
    before exported ones are built. *)

val pp : Format.formatter -> t -> unit
