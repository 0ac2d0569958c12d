(** OpenFlow-style flow rules.  A "port" is the node id of the neighbor
    reached over the corresponding link.  A rule's OpenFlow priority is
    its prefix length, so it carries no priority of its own. *)

type port = int

type action = Output of port

type rule = {
  match_prefix : Net.Ipv4.prefix;
  action : action;
  hard_timeout : Engine.Time.span option;  (** expire this long after install *)
}

val make : ?hard_timeout:Engine.Time.span -> match_prefix:Net.Ipv4.prefix -> action -> rule

val out_port : rule -> port
(** The port the rule outputs to. *)

val action_equal : action -> action -> bool

val pp_action : Format.formatter -> action -> unit

val pp : Format.formatter -> rule -> unit
(** [prio=<prefix length> <prefix> -> <action>]. *)
