(* The union message type carried by the emulated fabric: BGP wire
   messages and OpenFlow control traffic. *)

type t =
  | Bgp of Bgp.Message.t
  | Openflow of Sdn.Openflow.t

let pp ppf = function
  | Bgp m -> Fmt.pf ppf "bgp:%a" Bgp.Message.pp m
  | Openflow m -> Fmt.pf ppf "of:%a" Sdn.Openflow.pp m
