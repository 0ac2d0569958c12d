(** A route: path attributes and provenance.  Its prefix is the key of
    the table that stores it. *)

type source = Local | Ebgp of Net.Asn.t

type t = { attrs : Attrs.t; source : source }

val make : attrs:Attrs.t -> source:source -> t

val attrs : t -> Attrs.t

val source : t -> source

val from_peer : t -> Net.Asn.t option

val pp : prefix:Net.Ipv4.prefix -> Format.formatter -> t -> unit
(** [prefix attrs via source]. *)
