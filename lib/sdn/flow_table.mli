(** A switch's flow table: one rule per match prefix, longest prefix
    wins.  A rule's OpenFlow priority is its prefix length, so this is
    the highest-priority match, and the table is a {!Net.Fib} keyed by
    match prefix: look a destination up with {!Net.Fib.lookup_value}. *)

type t = Flow.rule Net.Fib.t

val create : ?metrics:Engine.Metrics.t -> ?labels:Engine.Metrics.labels -> unit -> t
(** When [metrics] is given, occupancy is exported as the
    [sdn_flow_table_rules] gauge carrying [labels]. *)

val rules : t -> Flow.rule list
(** Longest prefix first; prefix-ascending within a length. *)

val size : t -> int

val add : t -> Flow.rule -> unit
(** Add-or-replace on the match prefix. *)

val delete : t -> match_prefix:Net.Ipv4.prefix -> unit
(** Delete the rule for exactly this prefix, if any. *)

val remove_physical : t -> Flow.rule -> bool
(** Remove exactly this rule record (physical identity); [false] when it
    was not installed.  Timeout expiry uses this so a later same-prefix
    replacement is never removed by the old rule's timer. *)

val clear : t -> unit
