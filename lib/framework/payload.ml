(* The union message type carried by the emulated fabric: BGP wire
   messages, OpenFlow control traffic, and data-plane packets. *)

type t =
  | Bgp of Bgp.Message.t
  | Openflow of Sdn.Openflow.t
  | Data of Net.Packet.t

let pp ppf = function
  | Bgp m -> Fmt.pf ppf "bgp:%a" Bgp.Message.pp m
  | Openflow m -> Fmt.pf ppf "of:%a" Sdn.Openflow.pp m
  | Data p -> Fmt.pf ppf "data:%a" Net.Packet.pp p
