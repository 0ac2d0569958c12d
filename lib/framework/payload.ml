(* The union message type carried by the emulated fabric: BGP wire
   messages and OpenFlow control traffic. *)

type t =
  | Bgp of Bgp.Message.t
  | Openflow of Sdn.Openflow.t
