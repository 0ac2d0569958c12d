(** BGP messages at semantic granularity. *)

type update = {
  announced : (Net.Ipv4.prefix * Attrs.t) list;
  withdrawn : Net.Ipv4.prefix list;
}

type t =
  | Open of { asn : Net.Asn.t; router_id : Net.Ipv4.addr; hold_time : int }
      (** proposed hold time in whole seconds; 0 disables liveness *)
  | Keepalive
  | Update of update
  | Notification of string

val update : ?announced:(Net.Ipv4.prefix * Attrs.t) list -> ?withdrawn:Net.Ipv4.prefix list -> unit -> t

val pp : Format.formatter -> t -> unit
