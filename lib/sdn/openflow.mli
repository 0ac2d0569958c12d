(** OpenFlow-style control messages, including the BGP relay
    encapsulation between border switches and the cluster BGP speaker. *)

type flow_mod_command = Add | Delete

type relay_direction = To_speaker | To_neighbor

type t =
  | Hello
  | Echo_request of { switch_asn : Net.Asn.t }
      (** switch → controller heartbeat probe *)
  | Echo_reply  (** controller → switch: the control plane is alive *)
  | Resync_done
      (** controller → switch after a restart: flow state reinstalled,
          leave legacy fallback mode *)
  | Flow_mod of { command : flow_mod_command; rule : Flow.rule }
  | Flow_removed of { switch_asn : Net.Asn.t; rule : Flow.rule }
      (** switch → controller: the rule reached its hard timeout *)
  | Port_status of { switch_asn : Net.Asn.t; port : Flow.port; up : bool }
  | Bgp_relay of {
      member : Net.Asn.t;
      neighbor : Net.Asn.t;
      direction : relay_direction;
      payload : Bgp.Message.t;
    }
