(** A router's routing information base: per prefix, one array whose
    cell 0 is the Loc-RIB best and whose later cells are the Adj-RIB-In,
    one route per peer.  A cell holds the route's interned attrs
    ({!Route.t} is {!Attrs.t}).  A peer's Adj-RIB-Out is derived from
    the Loc-RIB and its {!Mrai.t}'s queued changes. *)

type t

val create : unit -> t

val clear : t -> unit
(** Both RIBs. *)

module Adj_in : sig
  val set : t -> Net.Ipv4.prefix -> Route.t -> unit
  (** Insert or implicitly replace the route's peer's route for the
      prefix; the peer is the head of the route's AS path
      ({!Route.neighbor}).  The prefix's best is left as it was until the
      next {!Loc.decide}.
      @raise Invalid_argument for a local route (an empty path). *)

  val remove : t -> peer:Net.Asn.t -> Net.Ipv4.prefix -> bool
  (** [true] when the peer had a route for the prefix. *)

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
  (** The prefixes some peer has a route for, ascending. *)

  val size : t -> int
end

module Loc : sig
  val find : t -> Net.Ipv4.prefix -> Route.t option

  type change =
    | Kept  (** the best stayed *)
    | Changed of { old : Route.t option; best : Route.t option }
        (** the best before and after the decision, at least one of
            them present *)

  val decide : t -> Net.Ipv4.prefix -> local:Route.t option -> change
  (** Rerun the decision process for the prefix over its learned routes
      and the local route, if any, in one probe of the table: the most
      preferred under {!Decision.compare} becomes the best, unless it is
      the current best ([Kept]: interning makes a route with the same
      path, wire attrs and local-pref the same value).  With no
      candidate the best is removed. *)

  val entries : t -> (Net.Ipv4.prefix * Route.t) list

  val iter : t -> (int -> Route.t -> unit) -> unit
  (** In {!entries} order, each prefix as {!Net.Ipv4.prefix_to_packed}.
      The sorted order is cached until the next change to the set of
      prefixes either RIB holds, so a walk allocates nothing unless that
      set changed since the last one.  [f] must not modify the table. *)

  val size : t -> int
end
