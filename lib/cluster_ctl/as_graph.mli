(** The per-prefix AS topology graph: the controller's loop-safe
    transformation of the switch graph plus external BGP routes, and the
    Dijkstra route selection on it. *)

type exit_route = {
  member : Net.Asn.t;  (** cluster member whose peering learned the route *)
  neighbor : Net.Asn.t;  (** external neighbor it was learned from *)
  attrs : Bgp.Attrs.t;
  rel : Bgp.Policy.relationship;  (** relationship toward [neighbor] *)
}

type hop =
  | Deliver_local  (** this member originates the prefix *)
  | Exit of { neighbor : Net.Asn.t }  (** leave the cluster via this peering *)
  | Intra of { next_member : Net.Asn.t }  (** next switch inside the cluster *)
  | Bridge of { via_neighbor : Net.Asn.t; to_member : Net.Asn.t }
      (** cross the legacy world toward another sub-cluster *)

type decision = {
  member : Net.Asn.t;
  hop : hop;
  as_path : Net.Asn.t list;  (** member → origin, member itself excluded *)
  distance : float;
  provenance : Bgp.Policy.route_provenance;
}

val classify_path :
  Net.Asn.Set.t -> Net.Asn.t list -> [ `External | `Reenters of Net.Asn.t list * Net.Asn.t ]
(** Whether an AS path re-enters the cluster; if so, the legacy segment up
    to and including the first member, and that member. *)

type arena
(** Reusable dense working state for {!compute}: the member index, the
    sub-cluster ids and intra-cluster adjacency (cached on the member set
    and the switch graph's {!Net.Graph.version}), and the (k+1)^2
    edge arrays and Dijkstra arrays of k members.  One arena serves any
    number of sequential computations; results never alias arena
    storage. *)

val create_arena : unit -> arena

val compute :
  ?arena:arena ->
  members:Net.Asn.Set.t ->
  switch_graph:Net.Graph.t ->
  routes:exit_route list ->
  originators:Net.Asn.Set.t ->
  unit ->
  decision Net.Asn.Map.t
(** Route selection for one prefix.  [switch_graph] nodes are member ASN
    integers with only up links.  Routes whose path re-enters the
    member's own sub-cluster are discarded (loop avoidance); paths into a
    different sub-cluster become legacy bridges.  Of several candidates
    for one edge the first strictly lightest wins, in the order intra
    links, originators, then [routes]; Dijkstra ties go to the earlier
    relaxation.  Unreachable members are absent from the result.  The
    result's next hops form a tree — loop-free by construction. *)

val naive_compute :
  members:Net.Asn.Set.t ->
  routes:exit_route list ->
  originators:Net.Asn.Set.t ->
  unit ->
  decision Net.Asn.Map.t
(** The baseline the paper warns against: independent per-member best-exit
    selection with only BGP's own-ASN loop check — no switch-graph
    transformation, no sub-cluster analysis.  Can produce forwarding
    loops through the legacy world (demonstrated in the test suite);
    exists for comparison only. *)

val pp_decision : Format.formatter -> decision -> unit
