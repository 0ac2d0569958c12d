(* OpenFlow-style control messages between switches and the controller,
   plus the BGP relay encapsulation the cluster uses: every external BGP
   peering of a cluster member terminates at the cluster BGP speaker, and
   its messages travel encapsulated over the switch-controller channel. *)

type flow_mod_command = Add | Delete

type relay_direction = To_speaker | To_neighbor

type t =
  | Hello
  | Echo_request of { switch_asn : Net.Asn.t } (* switch -> controller heartbeat probe *)
  | Echo_reply (* controller -> switch: the control plane is alive *)
  | Resync_done
      (* controller -> switch after a restart: the flow table has been
         atomically reinstalled; leave legacy fallback mode *)
  | Flow_mod of { command : flow_mod_command; rule : Flow.rule }
  | Flow_removed of { switch_asn : Net.Asn.t; rule : Flow.rule }
  | Port_status of { switch_asn : Net.Asn.t; port : Flow.port; up : bool }
  | Bgp_relay of {
      member : Net.Asn.t; (* the cluster member AS whose peering this is *)
      neighbor : Net.Asn.t; (* the external BGP neighbor *)
      direction : relay_direction;
      payload : Bgp.Message.t;
    }

let pp ppf = function
  | Hello -> Fmt.string ppf "HELLO"
  | Echo_request { switch_asn } -> Fmt.pf ppf "ECHO_REQUEST %a" Net.Asn.pp switch_asn
  | Echo_reply -> Fmt.string ppf "ECHO_REPLY"
  | Resync_done -> Fmt.string ppf "RESYNC_DONE"
  | Flow_mod { command; rule } ->
    let cmd = match command with Add -> "add" | Delete -> "del" in
    Fmt.pf ppf "FLOW_MOD %s %a" cmd Flow.pp rule
  | Flow_removed { switch_asn; rule } ->
    Fmt.pf ppf "FLOW_REMOVED %a %a (hard timeout)" Net.Asn.pp switch_asn Flow.pp rule
  | Port_status { switch_asn; port; up } ->
    Fmt.pf ppf "PORT_STATUS %a port=%d %s" Net.Asn.pp switch_asn port
      (if up then "up" else "down")
  | Bgp_relay { member; neighbor; direction; payload } ->
    let dir = match direction with To_speaker -> "->speaker" | To_neighbor -> "->neighbor" in
    Fmt.pf ppf "BGP_RELAY %a/%a %s %a" Net.Asn.pp member Net.Asn.pp neighbor dir
      Bgp.Message.pp payload
