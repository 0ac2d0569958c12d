(** Routing information bases: Adj-RIB-In and Loc-RIB.  Each peer's
    Adj-RIB-Out lives in its {!Mrai.t}. *)

module Adj_in : sig
  type t

  val create : unit -> t

  val set : t -> Route.t -> unit
  (** Insert or implicitly replace the route's peer's route for its
      prefix; the peer is the route's [Ebgp] source.
      @raise Invalid_argument for a [Local] route. *)

  val remove : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> unit

  val find : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> Route.t option

  val candidates : t -> Net.Ipv4.prefix -> Route.t list
  (** All peers' routes for the prefix, ascending peer order. *)

  val prefixes_from : t -> peer:Net.Asn.t -> Net.Ipv4.prefix list
  (** Ascending prefix order; scans every prefix. *)

  val drop_peer : t -> peer:Net.Asn.t -> Net.Ipv4.prefix list
  (** Remove everything from the peer (session down); returns the dropped
      prefixes, in ascending order, so the decision process can be rerun
      for them. *)

  val all_prefixes : t -> Net.Ipv4.prefix list

  val size : t -> int

  val clear : t -> unit
end

module Loc : sig
  type t

  val create : unit -> t

  val find : t -> Net.Ipv4.prefix -> Route.t option

  val set : t -> Route.t -> unit

  val remove : t -> Net.Ipv4.prefix -> unit

  val entries : t -> (Net.Ipv4.prefix * Route.t) list

  val prefixes : t -> Net.Ipv4.prefix list

  val size : t -> int

  val clear : t -> unit
end
