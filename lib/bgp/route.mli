(** A route: its interned path attributes, and nothing else.  Its prefix
    is the key of the table that stores it, and its provenance is read
    from its AS path: every exporter prepends its own ASN, so a learned
    route's neighbor is the head of its path, and a local route is the
    only route with an empty path (a router stores no learned route
    whose path does not start at the peer that sent it). *)

type source = Local | Ebgp of Net.Asn.t

type t = Attrs.t

val make : attrs:Attrs.t -> source:source -> t
(** [attrs], checked against [source]: [Local] wants an empty path and
    [Ebgp n] a path that starts with [n].
    @raise Invalid_argument otherwise. *)

val attrs : t -> Attrs.t

val is_local : t -> bool
(** The path is empty.  Allocates nothing. *)

val neighbor : t -> int
(** The ASN ({!Net.Asn.to_int}) of the peer the route was learned from,
    [-1] for a local route.  Allocates nothing. *)

val source : t -> source
(** Allocates an [Ebgp] block: for dumps and tests, not the hot path. *)

val from_peer : t -> Net.Asn.t option

val pp : prefix:Net.Ipv4.prefix -> Format.formatter -> t -> unit
(** [prefix attrs via source]. *)
