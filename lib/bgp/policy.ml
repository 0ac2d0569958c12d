(* Relationship-based BGP policy templates.

   The framework auto-configures Gao–Rexford (valley-free) policies from a
   topology's business relationships: customers are preferred over peers
   over providers on import, and routes learned from peers/providers are
   re-exported only to customers.  [Unrestricted] disables policy — the
   clique experiments use it so routes propagate everywhere and the classic
   path-exploration dynamics appear. *)

type relationship = Customer | Provider | Peer | Sibling | Unrestricted

let relationship_to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"
  | Sibling -> "sibling"
  | Unrestricted -> "unrestricted"

(* Standard local-preference tiers: prefer routes via customers (they pay),
   then siblings/peers, then providers. *)
let default_local_pref = function
  | Customer -> 130
  | Sibling -> 120
  | Peer -> 110
  | Unrestricted -> 100
  | Provider -> 90

type t = {
  relationship : relationship;
  local_pref : int;
  import_prefix_filter : Net.Ipv4.prefix -> bool;
  export_prefix_filter : Net.Ipv4.prefix -> bool;
  import_community : Community.t option;
  export_prepend : int; (* extra own-ASN prepends toward this neighbor (TE) *)
}

let accept_all _ = true

let build ?local_pref ?(import_prefix_filter = accept_all) ?(export_prefix_filter = accept_all)
    ?import_community ?(export_prepend = 0) relationship =
  if export_prepend < 0 then invalid_arg "Policy.make: negative export_prepend";
  let local_pref =
    match local_pref with Some lp -> lp | None -> default_local_pref relationship
  in
  {
    relationship;
    local_pref;
    import_prefix_filter;
    export_prefix_filter;
    import_community;
    export_prepend;
  }

(* A policy is immutable, so every peering with a plain template shares
   one value per relationship. *)
let customer = build Customer

let provider = build Provider

let peer = build Peer

let sibling = build Sibling

let unrestricted = build Unrestricted

let make ?local_pref ?import_prefix_filter ?export_prefix_filter ?import_community
    ?export_prepend relationship =
  match
    (local_pref, import_prefix_filter, export_prefix_filter, import_community, export_prepend)
  with
  | None, None, None, None, None -> (
    match relationship with
    | Customer -> customer
    | Provider -> provider
    | Peer -> peer
    | Sibling -> sibling
    | Unrestricted -> unrestricted)
  | _ ->
    build ?local_pref ?import_prefix_filter ?export_prefix_filter ?import_community
      ?export_prepend relationship

let relationship t = t.relationship

let local_pref t = t.local_pref

let export_prepend t = t.export_prepend

(* Import processing for a route received from a peer governed by [t], in
   two steps so a rejection allocates nothing: [accepts] rejects AS-path
   loops, filtered prefixes and NO_ADVERTISE; [import] stamps local-pref
   (a purely local attribute) and the provenance community. *)
let accepts t ~me ~prefix (attrs : Attrs.t) =
  (not (Attrs.path_contains attrs me))
  && t.import_prefix_filter prefix
  && not (Attrs.has_community attrs Community.no_advertise)

let import t (attrs : Attrs.t) =
  let attrs = Attrs.with_local_pref attrs t.local_pref in
  match t.import_community with Some c -> Attrs.add_community attrs c | None -> attrs

(* The source "relationship" of a locally originated route. *)
type route_provenance = From of relationship | Originated

(* Valley-free export rule: routes go to customers/siblings always; to
   peers and providers only when we originated them or learned them from a
   customer/sibling.  Unrestricted neighbors exchange everything. *)
let export_allowed ~to_rel ~provenance =
  match to_rel with
  | Customer | Sibling | Unrestricted -> true
  | Peer | Provider -> (
    match provenance with
    | Originated -> true
    | From (Customer | Sibling | Unrestricted) -> true
    | From (Peer | Provider) -> false)

(* The provenance of a route learned from a neighbor of relationship
   [rel]: one static value per relationship, never a fresh block. *)
let learned_from = function
  | Customer -> From Customer
  | Provider -> From Provider
  | Peer -> From Peer
  | Sibling -> From Sibling
  | Unrestricted -> From Unrestricted

(* Export policy toward a neighbor governed by [t]: the valley-free rule,
   the prefix filter and NO_EXPORT/NO_ADVERTISE.  The rule reads only the
   communities, which the exported attrs share with the route's own, so
   it is asked before any exported attrs exist. *)
let exports t ~provenance ~prefix (attrs : Attrs.t) =
  export_allowed ~to_rel:t.relationship ~provenance
  && t.export_prefix_filter prefix
  && (not (Attrs.has_community attrs Community.no_export))
  && not (Attrs.has_community attrs Community.no_advertise)

let pp ppf t =
  Fmt.pf ppf "%s lp=%d" (relationship_to_string t.relationship) t.local_pref
