(* OpenFlow-style flow rules.

   The emulation has no port numbers: a "port" is the node id of the
   neighbor reached over the corresponding link, which is what forwarding
   needs.  A rule has no priority field: the controller installs one
   destination rule per prefix at OpenFlow priority = prefix length, so a
   rule's rank is its prefix length and the table is longest-prefix
   match (see [Flow_table]). *)

type port = int

type action = Output of port

type rule = {
  match_prefix : Net.Ipv4.prefix;
  action : action;
  hard_timeout : Engine.Time.span option; (* expire this long after install *)
}

let make ?hard_timeout ~match_prefix action = { match_prefix; action; hard_timeout }

let out_port { action = Output p; _ } = p

let action_equal (Output p) (Output q) = p = q

let pp_action ppf (Output p) = Fmt.pf ppf "output:%d" p

(* Printed with its OpenFlow priority, the prefix length. *)
let pp ppf r =
  Fmt.pf ppf "prio=%d %a -> %a" (Net.Ipv4.prefix_len r.match_prefix) Net.Ipv4.pp_prefix
    r.match_prefix pp_action r.action
