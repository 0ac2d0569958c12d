(** Compile AS-graph decisions to flow rules, diffed against the installed
    state so only changes produce FLOW_MODs. *)

type change = { member : Net.Asn.t; mods : Sdn.Openflow.t list }

val diff :
  ?hard_timeout:Engine.Time.span ->
  prefix:Net.Ipv4.prefix ->
  node_of_asn:(Net.Asn.t -> int option) ->
  members:Net.Asn.t list ->
  installed:Sdn.Flow.action Net.Asn.Map.t ->
  desired:As_graph.decision Net.Asn.Map.t ->
  unit ->
  change list * Sdn.Flow.action Net.Asn.Map.t
(** Returns the per-member FLOW_MODs and the new installed-state map.
    [Deliver_local] decisions install nothing (the member's local
    delivery set covers those addresses).  [hard_timeout] stamps every
    added rule so it decays at the switch unless refreshed. *)
