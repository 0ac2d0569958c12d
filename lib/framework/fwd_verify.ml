(* Static forwarding-state verification.

   After a convergence event the composed legacy BGP + SDN flow-table forwarding state
   either carries every (src, dst) pair, black-holes it (legal while a
   prefix is genuinely unreachable), or — never legally — cycles it.
   This module walks a frozen [Net.Dataplane] snapshot over all pairs to
   classify each one WITHOUT sending packets: the same per-hop order as
   the live data plane (local delivery, TTL, lookup, link liveness), at
   snapshot speed, with no mutation of flow counters.

   Two consumers: experiments call [verify] for loop/black-hole censuses
   between events, and the chaos invariant oracle calls [differential]
   to hold the verifier and the event-driven reference walker
   ([Monitor.walk]) to the same answer on every pair — the standing
   correctness check that the fast path forwards exactly like the
   emulation it summarizes. *)

type issue = {
  src : Net.Asn.t;
  dst : Net.Asn.t;
  fate : Net.Dataplane.fate; (* never [Delivered] *)
  path : Net.Asn.t list; (* source first, terminal node last *)
}

type report = {
  pairs : int;
  delivered : int;
  blackholed : int;
  looped : int;
  ttl_expired : int;
  issues : issue list; (* every non-delivered pair, (src, dst) walk order *)
}

let pp_issue ppf i =
  Fmt.pf ppf "%a -> %a: %a via [%a]" Net.Asn.pp i.src Net.Asn.pp i.dst Net.Dataplane.pp_fate
    i.fate
    Fmt.(list ~sep:sp Net.Asn.pp)
    i.path

let loops r = List.filter (fun i -> i.fate = Net.Dataplane.Looped) r.issues

let path_of dp =
  Array.to_list (Net.Dataplane.last_path dp)
  |> List.map (fun i -> Net.Asn.of_int (Net.Dataplane.asn_at dp i))

(* Classify every (src, dst) pair against the host address of [dst]'s
   origin prefix.  [snapshot] lets callers amortize one compile across
   several verifications of unchanged state. *)
let verify ?(ttl = Net.Packet.default_ttl) ?snapshot ?srcs ?dsts net =
  let all = Topology.Spec.asns (Network.spec net) in
  let srcs = Option.value srcs ~default:all in
  let dsts = Option.value dsts ~default:all in
  let plan = Network.plan net in
  let dp = match snapshot with Some dp -> dp | None -> Network.dataplane_snapshot net in
  let delivered = ref 0
  and blackholed = ref 0
  and looped = ref 0
  and ttl_expired = ref 0
  and pairs = ref 0
  and issues = ref [] in
  List.iter
    (fun src ->
      let si = Net.Dataplane.index_of dp (Net.Asn.to_int src) in
      List.iter
        (fun dst ->
          if not (Net.Asn.equal src dst) then begin
            incr pairs;
            let dst_bits = Net.Ipv4.addr_to_bits (plan.Addressing.host_addr dst) in
            let r = Net.Dataplane.forward dp ~src:si ~dst_bits ~ttl in
            match Net.Dataplane.result_fate r with
            | Net.Dataplane.Delivered -> incr delivered
            | fate ->
              (match fate with
              | Net.Dataplane.Blackholed -> incr blackholed
              | Net.Dataplane.Looped -> incr looped
              | Net.Dataplane.Delivered | Net.Dataplane.Ttl_expired -> incr ttl_expired);
              issues := { src; dst; fate; path = path_of dp } :: !issues
          end)
        dsts)
    srcs;
  {
    pairs = !pairs;
    delivered = !delivered;
    blackholed = !blackholed;
    looped = !looped;
    ttl_expired = !ttl_expired;
    issues = List.rev !issues;
  }

(* --- Verifier-vs-walker differential ------------------------------------ *)

type disagreement = {
  d_src : Net.Asn.t;
  d_dst : Net.Asn.t;
  static_fate : Net.Dataplane.fate;
  walk_outcome : Monitor.outcome;
}

let pp_disagreement ppf d =
  Fmt.pf ppf "%a -> %a: verifier says %a, walker says %a" Net.Asn.pp d.d_src Net.Asn.pp
    d.d_dst Net.Dataplane.pp_fate d.static_fate Monitor.pp_outcome d.walk_outcome

let fate_of_outcome = function
  | Monitor.Delivered _ -> Net.Dataplane.Delivered
  | Monitor.Blackhole _ -> Net.Dataplane.Blackholed
  | Monitor.Loop _ -> Net.Dataplane.Looped
  | Monitor.Ttl_exceeded _ -> Net.Dataplane.Ttl_expired

(* Every pair where the snapshot's fate differs from [Monitor.walk] over
   the live state.  [ttl] and [max_hops] are held equal; on networks
   smaller than that bound (every test and chaos topology) neither limit
   binds before loop detection does, so the two classifiers must agree
   exactly. *)
let differential ?(ttl = Net.Packet.default_ttl) net =
  let asns = Topology.Spec.asns (Network.spec net) in
  let plan = Network.plan net in
  let dp = Network.dataplane_snapshot net in
  List.concat_map
    (fun src ->
      let si = Net.Dataplane.index_of dp (Net.Asn.to_int src) in
      List.filter_map
        (fun dst ->
          if Net.Asn.equal src dst then None
          else begin
            let dst_addr = plan.Addressing.host_addr dst in
            let r =
              Net.Dataplane.forward dp ~src:si
                ~dst_bits:(Net.Ipv4.addr_to_bits dst_addr)
                ~ttl
            in
            let static_fate = Net.Dataplane.result_fate r in
            let walk_outcome = Monitor.walk ~max_hops:ttl net ~src ~dst_addr in
            if fate_of_outcome walk_outcome = static_fate then None
            else Some { d_src = src; d_dst = dst; static_fate; walk_outcome }
          end)
        asns)
    asns
