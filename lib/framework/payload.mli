(** The union message type carried by the emulated fabric. *)

type t =
  | Bgp of Bgp.Message.t
  | Openflow of Sdn.Openflow.t
