(** Routing information bases: Adj-RIB-In and Loc-RIB.  A peer's
    Adj-RIB-Out is derived from the Loc-RIB and its {!Mrai.t}'s queued
    changes. *)

module Adj_in : sig
  type t

  val create : unit -> t

  val set : t -> Net.Ipv4.prefix -> Route.t -> unit
  (** Insert or implicitly replace the route's peer's route for the
      prefix; the peer is the route's [Ebgp] source.
      @raise Invalid_argument for a [Local] route. *)

  val remove : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> bool
  (** [true] when the peer had a route for the prefix. *)

  val find : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> Route.t option

  val routes : t -> Net.Ipv4.prefix -> Route.t array
  (** All peers' routes for the prefix, ascending peer order: the table's
      own array (empty when none), to be read and not kept across a
      change to the prefix. *)

  val candidates : t -> Net.Ipv4.prefix -> Route.t list
  (** [routes] as a fresh list. *)

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

  type replaced =
    | Kept  (** the best stayed *)
    | Replaced of Route.t option  (** the best before the change, if any *)

  val install : t -> Net.Ipv4.prefix -> Route.t -> replaced
  (** Make the route the prefix's best unless the current best has the
      same source, wire-equal attrs and the same local-pref ([Kept]). *)

  val remove : t -> Net.Ipv4.prefix -> Route.t option
  (** The best removed, if the prefix had one. *)

  val entries : t -> (Net.Ipv4.prefix * Route.t) list

  val iter : t -> (int -> Route.t -> unit) -> unit
  (** In {!entries} order, each prefix as {!Net.Ipv4.prefix_to_packed}.
      The sorted order is cached until the next change to the set of
      prefixes, so a walk allocates nothing unless that set changed since
      the last one.  [f] must not modify the table. *)

  val size : t -> int

  val clear : t -> unit
end
