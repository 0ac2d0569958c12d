(** The monitoring route collector: peers with every router, accepts all
    updates, records them with timestamps, never advertises. *)

type action = Announce of Attrs.t | Withdraw

type event = { time : Engine.Time.t; peer : Net.Asn.t; prefix : Net.Ipv4.prefix; action : action }

type retention = Full | Counts_only
(** [Full] keeps the complete event log (dumps, per-prefix histories).
    [Counts_only] retains only the total update count — constant memory
    — for Internet-scale runs where the log would dominate the heap
    (convergence detection reads the routers' best changes, not this
    feed). *)

type t

val create :
  ?retention:retention ->
  sim:Engine.Sim.t ->
  asn:Net.Asn.t ->
  router_id:Net.Ipv4.addr ->
  send:(dst:int -> Message.t -> bool) ->
  unit ->
  t
(** [retention] defaults to [Full]. *)

val node : t -> Engine.Node.t
(** The runtime node; a crash loses the event log (a real collector
    outage leaves the same gap in the monitoring feed). *)

val add_peer : t -> peer_asn:Net.Asn.t -> peer_node:int -> unit

val handle_message : t -> from:int -> Message.t -> unit
(** Responds to OPENs and records updates. *)

val events : t -> event list
(** Oldest first.  Empty under [Counts_only] retention. *)

val event_count : t -> int

val dump : t -> string
(** MRT-inspired text dump:
    ["<time_us>|<peer>|A|<prefix>|<asn asn ...>"] / ["...|W|<prefix>|"]. *)

val parse_dump : string -> (event list, string) result
(** Parse a dump back into events (attributes carry the AS path only). *)

