(** End-to-end connectivity monitoring: a zero-time walker over the
    programmed forwarding state.  Loss under convergence is measured by
    {!Trafficgen} bursts over the compiled {!Net.Dataplane} snapshot. *)

type outcome =
  | Delivered of Net.Asn.t list  (** AS-level path, source first *)
  | Blackhole of Net.Asn.t list
  | Loop of Net.Asn.t list
  | Ttl_exceeded of Net.Asn.t list

val is_delivered : outcome -> bool

val walk : ?max_hops:int -> Network.t -> src:Net.Asn.t -> dst_addr:Net.Ipv4.addr -> outcome
(** Follow each AS's forwarding ({!Network.forwarding_at}) hop by hop; a
    next hop over a failed link is a blackhole. *)

val reachable : Network.t -> src:Net.Asn.t -> dst:Net.Asn.t -> bool
(** Walk from [src] to [dst]'s host address. *)

val connectivity_matrix :
  Network.t -> origins:Net.Asn.t list -> (Net.Asn.t * Net.Asn.t * bool) list
(** All-pairs reachability from every AS to each origin's host. *)

type trace_hop = { hop : Net.Asn.t; cumulative : Engine.Time.span }

val traceroute :
  Network.t -> src:Net.Asn.t -> dst:Net.Asn.t -> outcome * trace_hop list
(** The walker annotated with cumulative one-way latency per hop. *)

val pp_outcome : Format.formatter -> outcome -> unit
