(* End-to-end connectivity monitoring: a zero-time walker over the
   programmed forwarding state (legacy Loc-RIBs + SDN flow tables) that
   classifies a path as delivered, black-holed, or looping.  It is the
   reference the compiled [Net.Dataplane] snapshot is held to, and the
   "is connectivity stable" check of the invariant oracle; loss under
   convergence is measured by [Trafficgen] bursts over the snapshot. *)

type outcome =
  | Delivered of Net.Asn.t list (* AS-level path, source first *)
  | Blackhole of Net.Asn.t list
  | Loop of Net.Asn.t list
  | Ttl_exceeded of Net.Asn.t list

let outcome_path = function
  | Delivered p | Blackhole p | Loop p | Ttl_exceeded p -> p

let is_delivered = function
  | Delivered _ -> true
  | Blackhole _ | Loop _ | Ttl_exceeded _ -> false

(* Walk the forwarding state from [src] toward [dst_addr]. *)
let walk ?(max_hops = 64) network ~src ~dst_addr =
  let rec go asn visited hops =
    let path = List.rev (asn :: visited) in
    if hops > max_hops then Ttl_exceeded path
    else
      match Network.forwarding_at network asn dst_addr with
      | Network.Local -> Delivered path
      | Network.No_route -> Blackhole path
      | Network.Next node -> (
        match Network.asn_of_node network node with
        | None -> Blackhole path
        | Some next ->
          (* A next hop over a failed link drops traffic on the wire. *)
          if not (Network.link_up network asn next) then Blackhole path
          else if List.exists (Net.Asn.equal next) (asn :: visited) then Loop (path @ [ next ])
          else go next (asn :: visited) (hops + 1))
  in
  go src [] 0

let reachable network ~src ~dst =
  let dst_addr = (Network.plan network).Addressing.host_addr dst in
  is_delivered (walk network ~src ~dst_addr)

(* All-pairs reachability for the ASes that currently originate their
   default prefix (others have no address to reach). *)
let connectivity_matrix network ~origins =
  let plan = Network.plan network in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if Net.Asn.equal src dst then None
          else
            Some (src, dst, is_delivered (walk network ~src ~dst_addr:(plan.Addressing.host_addr dst))))
        origins)
    (Topology.Spec.asns (Network.spec network))

(* Traceroute: the walker annotated with cumulative one-way latency from
   the fabric's link delays. *)
type trace_hop = { hop : Net.Asn.t; cumulative : Engine.Time.span }

let traceroute network ~src ~dst =
  let dst_addr = (Network.plan network).Addressing.host_addr dst in
  let outcome = walk network ~src ~dst_addr in
  let rec annotate acc cumulative = function
    | [] -> List.rev acc
    | [ last ] -> List.rev ({ hop = last; cumulative } :: acc)
    | a :: (b :: _ as rest) ->
      let step = Option.value (Network.link_delay network a b) ~default:Engine.Time.span_zero in
      annotate
        ({ hop = a; cumulative } :: acc)
        (Engine.Time.span_add cumulative step)
        rest
  in
  (outcome, annotate [] Engine.Time.span_zero (outcome_path outcome))

let pp_outcome ppf o =
  let kind, path =
    match o with
    | Delivered p -> ("delivered", p)
    | Blackhole p -> ("blackhole", p)
    | Loop p -> ("loop", p)
    | Ttl_exceeded p -> ("ttl-exceeded", p)
  in
  Fmt.pf ppf "%s via [%a]" kind Fmt.(list ~sep:sp Net.Asn.pp) path
