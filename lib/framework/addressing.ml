(* Automatic IP address assignment — the configuration management the
   framework performs so experimenters never hand out prefixes.

   Each AS (by its ordinal in the spec) receives:
   - a router address   10.<k/256>.<k%256>.1 (also the BGP next-hop);
   - a host address     inside its origin prefix (.10);
   - an origin prefix   100.<64 + k/256>.<k%256>.0/24, the prefix the AS
     announces in experiments by default. *)

type plan = {
  index_of : Net.Asn.t -> int;
  router_addr : Net.Asn.t -> Net.Ipv4.addr;
  host_addr : Net.Asn.t -> Net.Ipv4.addr;
  origin_prefix : Net.Asn.t -> Net.Ipv4.prefix;
}

(* One /24 per AS from 100.64.0.0/10, and one router /24 from 10/8 per
   256 ASes: the plan covers the first 16,384 ASes of a spec. *)
let max_ases = 256 * 64

let plan spec =
  let index_of asn =
    match Topology.Spec.ordinal spec asn with
    | Some i -> i
    | None -> invalid_arg (Fmt.str "Addressing: unknown %a" Net.Asn.pp asn)
  in
  let split asn =
    let k = index_of asn in
    if k >= max_ases then failwith "Addressing: topology too large for the address plan";
    (k / 256, k mod 256)
  in
  let router_addr asn =
    let hi, lo = split asn in
    Net.Ipv4.addr_of_octets 10 hi lo 1
  in
  let origin_prefix asn =
    let hi, lo = split asn in
    Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 100 (64 + hi) lo 0) 24
  in
  let host_addr asn = Net.Ipv4.nth_host (origin_prefix asn) 10 in
  { index_of; router_addr; host_addr; origin_prefix }
