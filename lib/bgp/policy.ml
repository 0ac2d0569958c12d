(* Relationship-based BGP policy.

   The framework auto-configures Gao–Rexford (valley-free) policies from a
   topology's business relationships: customers are preferred over peers
   over providers on import, and routes learned from peers/providers are
   re-exported only to customers.  [Unrestricted] disables policy — the
   clique experiments use it so routes propagate everywhere and the classic
   path-exploration dynamics appear. *)

type relationship = Customer | Provider | Peer | Sibling | Unrestricted

type t = relationship

let relationship_to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"
  | Sibling -> "sibling"
  | Unrestricted -> "unrestricted"

(* Standard local-preference tiers: prefer routes via customers (they pay),
   then siblings/peers, then providers. *)
let local_pref = function
  | Customer -> 130
  | Sibling -> 120
  | Peer -> 110
  | Unrestricted -> 100
  | Provider -> 90

(* Import of a route received from a neighbor of relationship [t], once
   the AS-path loop check accepted it: local-pref is a purely local
   attribute, stamped on arrival. *)
let import t (attrs : Attrs.t) = Attrs.with_local_pref attrs (local_pref t)

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
