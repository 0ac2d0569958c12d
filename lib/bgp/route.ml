(* A route is its interned attrs: a RIB cell holds the canonical
   [Attrs.t] and no block of its own.  The source is derived from the AS
   path, which every exporter in the emulation extends with its own ASN
   ([Attrs.exported], the speaker's [member :: path]), and the router's
   import rejects a path that does not start at the sending peer; so
   [[]] is a local route and [p :: _] one learned from [p].  The hot
   readers ([is_local], [neighbor]) allocate nothing. *)

type source =
  | Local (* originated by this router *)
  | Ebgp of Net.Asn.t (* learned from this external peer *)

type t = Attrs.t

let is_local (t : t) = t.Attrs.as_path = []

let neighbor (t : t) = match t.Attrs.as_path with [] -> -1 | p :: _ -> Net.Asn.to_int p

let make ~attrs ~source =
  let ok =
    match source with
    | Local -> is_local attrs
    | Ebgp p -> neighbor attrs = Net.Asn.to_int p
  in
  if not ok then invalid_arg "Route.make: the AS path does not match the source";
  attrs

let attrs t = t

let source t = match t.Attrs.as_path with [] -> Local | p :: _ -> Ebgp p

let from_peer t = match t.Attrs.as_path with [] -> None | p :: _ -> Some p

let pp_source ppf = function
  | Local -> Fmt.string ppf "local"
  | Ebgp p -> Fmt.pf ppf "ebgp:%a" Net.Asn.pp p

let pp ~prefix ppf t =
  Fmt.pf ppf "%a %a via %a" Net.Ipv4.pp_prefix prefix Attrs.pp t pp_source (source t)
