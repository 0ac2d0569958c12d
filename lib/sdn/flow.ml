(* OpenFlow-style flow rules.

   The emulation has no port numbers: a "port" is the node id of the
   neighbor reached over the corresponding link, which is what forwarding
   needs. *)

type port = int

type action = Output of port

type rule = {
  match_prefix : Net.Ipv4.prefix;
  priority : int;
  action : action;
  hard_timeout : Engine.Time.span option; (* expire this long after install *)
}

let make ?(priority = 0) ?hard_timeout ~match_prefix action =
  { match_prefix; priority; action; hard_timeout }

let matches rule addr = Net.Ipv4.mem addr rule.match_prefix

let action_equal (Output p) (Output q) = p = q

(* Same match and priority: the key OpenFlow uses for add-or-replace. *)
let same_match a b =
  Net.Ipv4.equal_prefix a.match_prefix b.match_prefix && a.priority = b.priority

let pp_action ppf (Output p) = Fmt.pf ppf "output:%d" p

let pp ppf r =
  Fmt.pf ppf "prio=%d %a -> %a" r.priority Net.Ipv4.pp_prefix r.match_prefix pp_action r.action
