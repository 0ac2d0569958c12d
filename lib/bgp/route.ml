(* A route: path attributes and provenance.  A stored route is two
   fields: its prefix is the key of the RIB that holds it, and an [Ebgp]
   source is shared by every route learned from the peer. *)

type source =
  | Local (* originated by this router *)
  | Ebgp of Net.Asn.t (* learned from this external peer *)

type t = { attrs : Attrs.t; source : source }

let make ~attrs ~source = { attrs; source }

let attrs t = t.attrs

let source t = t.source

let from_peer t = match t.source with Local -> None | Ebgp p -> Some p

let pp_source ppf = function
  | Local -> Fmt.string ppf "local"
  | Ebgp p -> Fmt.pf ppf "ebgp:%a" Net.Asn.pp p

let pp ~prefix ppf t =
  Fmt.pf ppf "%a %a via %a" Net.Ipv4.pp_prefix prefix Attrs.pp t.attrs pp_source t.source
