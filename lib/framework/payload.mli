(** The union message type carried by the emulated fabric. *)

type t =
  | Bgp of Bgp.Message.t
  | Openflow of Sdn.Openflow.t
  | Data of Net.Packet.t

val pp : Format.formatter -> t -> unit
