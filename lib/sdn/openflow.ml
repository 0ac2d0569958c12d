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
