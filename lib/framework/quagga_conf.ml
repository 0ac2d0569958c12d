(* Quagga/FRR configuration generation.

   The original framework's configuration management generates bgpd
   configs for every emulated AS; this module produces the equivalent
   bgpd.conf text from a topology spec and the automatic address plan, so
   an experiment designed here can be exported to a real Quagga/FRR
   testbed.

   Policy encoding follows deployment practice: routes are tagged with a
   provenance community on import (65000:1 customer, 65000:2 peer,
   65000:3 provider), import route-maps set the relationship
   local-preference, and export route-maps toward peers/providers deny
   routes tagged as peer- or provider-learned — the community encoding of
   Gao–Rexford. *)

let community_customer = "65000:1"

let community_peer = "65000:2"

let community_provider = "65000:3"

let relationship_local_pref = function
  | Topology.Spec.Customer -> 130
  | Topology.Spec.Sibling -> 120
  | Topology.Spec.Peer -> 110
  | Topology.Spec.Unrestricted -> 100
  | Topology.Spec.Provider -> 90

let provenance_community = function
  | Topology.Spec.Customer -> Some community_customer
  | Topology.Spec.Peer -> Some community_peer
  | Topology.Spec.Provider -> Some community_provider
  | Topology.Spec.Sibling | Topology.Spec.Unrestricted -> None

(* Does the export route-map toward this neighbor need valley-free
   filtering?  Only exports to peers and providers are restricted. *)
let restricts_export = function
  | Topology.Spec.Peer | Topology.Spec.Provider -> true
  | Topology.Spec.Customer | Topology.Spec.Sibling | Topology.Spec.Unrestricted -> false

let bgpd_conf spec plan asn =
  (match Topology.Spec.find_node spec asn with
  | Some _ -> ()
  | None -> invalid_arg (Fmt.str "Quagga_conf.bgpd_conf: unknown %a" Net.Asn.pp asn));
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = Net.Asn.to_string asn in
  let router_id = plan.Addressing.router_addr asn in
  let origin = plan.Addressing.origin_prefix asn in
  add "! bgpd.conf for %s — generated by hybridsdn" name;
  add "hostname %s" name;
  add "password zebra";
  add "log file /var/log/quagga/%s.log" name;
  add "!";
  add "router bgp %d" (Net.Asn.to_int asn);
  add " bgp router-id %s" (Net.Ipv4.addr_to_string router_id);
  add " network %s" (Net.Ipv4.prefix_to_string origin);
  (* each neighbor with its role seen from [asn], in link-list order *)
  let neighbors =
    List.map
      (fun l ->
        (Topology.Spec.other_end ~me:asn l, Topology.Spec.neighbor_role_of_link ~me:asn l))
      (Topology.Spec.links_of spec asn)
  in
  List.iter
    (fun (neighbor, _) ->
      let addr = plan.Addressing.router_addr neighbor in
      let naddr = Net.Ipv4.addr_to_string addr in
      add " neighbor %s remote-as %d" naddr (Net.Asn.to_int neighbor);
      add " neighbor %s description %s" naddr (Net.Asn.to_string neighbor);
      add " neighbor %s route-map IMPORT-%d in" naddr (Net.Asn.to_int neighbor);
      add " neighbor %s route-map EXPORT-%d out" naddr (Net.Asn.to_int neighbor);
      add " neighbor %s advertisement-interval 30" naddr)
    neighbors;
  add "!";
  (* import policy per neighbor: local-pref tier + provenance community *)
  List.iter
    (fun (neighbor, rel) ->
      add "route-map IMPORT-%d permit 10" (Net.Asn.to_int neighbor);
      add " set local-preference %d" (relationship_local_pref rel);
      (match provenance_community rel with
      | Some c -> add " set community %s additive" c
      | None -> ());
      add "!";
      add "route-map EXPORT-%d %s 10" (Net.Asn.to_int neighbor)
        (if restricts_export rel then "deny" else "permit");
      if restricts_export rel then begin
        add " match community FROM-PEER-OR-PROVIDER";
        add "!";
        add "route-map EXPORT-%d permit 20" (Net.Asn.to_int neighbor)
      end;
      add "!")
    neighbors;
  (* community list used by the valley-free deny clauses *)
  if List.exists (fun (_, rel) -> restricts_export rel) neighbors then begin
    add "ip community-list standard FROM-PEER-OR-PROVIDER permit %s" community_peer;
    add "ip community-list standard FROM-PEER-OR-PROVIDER permit %s" community_provider;
    add "!"
  end;
  add "line vty";
  Buffer.contents buf

let all_configs spec =
  let plan = Addressing.plan spec in
  List.map (fun asn -> (asn, bgpd_conf spec plan asn)) (Topology.Spec.asns spec)

let write_configs spec ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (asn, text) ->
      let path = Filename.concat dir (Fmt.str "bgpd-%s.conf" (Net.Asn.to_string asn)) in
      let oc = open_out path in
      output_string oc text;
      close_out oc)
    (all_configs spec)
