(** Automatic IP address assignment: router address, host address and
    default origin prefix per AS, derived from the spec ordering. *)

type plan = {
  index_of : Net.Asn.t -> int;
  router_addr : Net.Asn.t -> Net.Ipv4.addr;
  host_addr : Net.Asn.t -> Net.Ipv4.addr;
  origin_prefix : Net.Asn.t -> Net.Ipv4.prefix;
}

val max_ases : int
(** The most ASes a plan addresses: 16,384. *)

val plan : Topology.Spec.t -> plan
(** @raise Invalid_argument for ASNs outside the spec;
    @raise Failure for an AS past the first {!max_ases} of the spec. *)
