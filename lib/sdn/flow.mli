(** OpenFlow-style flow rules.  A "port" is the node id of the neighbor
    reached over the corresponding link. *)

type port = int

type action = Output of port

type rule = {
  match_prefix : Net.Ipv4.prefix;
  priority : int;
  action : action;
  hard_timeout : Engine.Time.span option;  (** expire this long after install *)
}

val make :
  ?priority:int -> ?hard_timeout:Engine.Time.span -> match_prefix:Net.Ipv4.prefix -> action -> rule

val matches : rule -> Net.Ipv4.addr -> bool

val action_equal : action -> action -> bool

val same_match : rule -> rule -> bool
(** Same (match, priority) key — OpenFlow's add-or-replace identity. *)

val pp_action : Format.formatter -> action -> unit

val pp : Format.formatter -> rule -> unit
