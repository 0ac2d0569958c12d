(* Declarative description of an experiment topology: ASes, inter-AS links
   and their business relationships, plus which ASes are SDN-controlled.
   Generators and dataset loaders produce specs; framework.Builder turns a
   spec into a running emulation. *)

type role = Legacy | Sdn

(* Relationship of link endpoint [a] towards endpoint [b]. *)
type rel =
  | C2p (* a is customer of b *)
  | P2p (* settlement-free peers *)
  | S2s (* siblings: mutual full transit *)
  | Open (* no policy: full propagation; used for clique experiments *)

type node_spec = { asn : Net.Asn.t; role : role; name : string }

type link_spec = { a : Net.Asn.t; b : Net.Asn.t; rel : rel; delay_us : int option }

(* An open-addressed map from non-negative ints (ASNs, packed ordinal
   pairs) to ints: linear probing, at most half full, no cell per entry,
   and -1 for a missing key.  A binding, once made, is never replaced. *)
module Imap = struct
  type t = {
    mutable keys : int array; (* -1: a free slot *)
    mutable vals : int array;
    mutable size : int;
  }

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    { keys = Array.make !cap (-1); vals = Array.make !cap 0; size = 0 }

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)

  (* The slot holding [k], or the free slot that ends its probe run. *)
  let rec probe keys mask k i =
    let k' = keys.(i) in
    if k' = k || k' < 0 then i else probe keys mask k ((i + 1) land mask)

  let slot keys k =
    let mask = Array.length keys - 1 in
    probe keys mask k (hash k land mask)

  let find t k =
    let i = slot t.keys k in
    if t.keys.(i) = k then t.vals.(i) else -1

  let rec add t k v =
    if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.size <- 0;
      Array.iteri (fun i k -> if k >= 0 then add t k vals.(i)) keys
    end;
    let i = slot t.keys k in
    if t.keys.(i) < 0 then begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.size <- t.size + 1
    end
end

(* The topology index, built once per spec in time linear in ASes +
   links.  An AS's ordinal is its position in the node list (the first,
   if it is listed twice); an endpoint that names no node (an invalid
   spec) gets an ordinal past the nodes.  [adjacency.(i)] holds the links
   of ordinal [i] in link-list order, so neighbor order is exactly the
   order a filter over the link list gives.  [by_pair] maps the packed
   ordinal pair of a link's endpoints to the link's position in the link
   list (the first, if repeated).  Roles are not indexed, so [with_sdn]
   shares the index. *)
type index = {
  ordinal : Imap.t; (* ASN -> ordinal *)
  members : int; (* the node count: ordinals below it are nodes *)
  adjacency : link_spec array array;
  link_at : link_spec array; (* the link list, by position *)
  by_pair : Imap.t;
}

type t = {
  title : string;
  nodes : node_spec list;
  links : link_spec list;
  node_at : node_spec array; (* the node list, by ordinal *)
  index : index;
}

let node ?(role = Legacy) ?name asn =
  let name = match name with Some n -> n | None -> Net.Asn.to_string asn in
  { asn; role; name }

let link ?(rel = Open) ?delay_us a b = { a; b; rel; delay_us }

(* Ordinals are below 2^31 (array lengths are), so a pair packs into one
   int; the smaller ordinal goes high, so both directions share a key. *)
let pair_key i j = if i < j then (i lsl 31) lor j else (j lsl 31) lor i

let build_index nodes links =
  let members = List.length nodes and link_at = Array.of_list links in
  let ordinal = Imap.create members in
  List.iteri (fun i n -> Imap.add ordinal (Net.Asn.to_int n.asn) i) nodes;
  let count = ref members in
  let ord asn =
    let asn = Net.Asn.to_int asn in
    match Imap.find ordinal asn with
    | -1 ->
      let i = !count in
      incr count;
      Imap.add ordinal asn i;
      i
    | i -> i
  in
  (* the endpoints' ordinals: [ends.(2k)] and [ends.(2k + 1)] for link k *)
  let ends = Array.make (2 * Array.length link_at) 0 in
  Array.iteri
    (fun k l ->
      ends.(2 * k) <- ord l.a;
      ends.((2 * k) + 1) <- ord l.b)
    link_at;
  let degree = Array.make !count 0 in
  let bump i = degree.(i) <- degree.(i) + 1 in
  for k = 0 to Array.length link_at - 1 do
    bump ends.(2 * k);
    if ends.((2 * k) + 1) <> ends.(2 * k) then bump ends.((2 * k) + 1)
  done;
  let adjacency = Array.make !count [||] in
  let fill = Array.make !count 0 in
  let push i l =
    if fill.(i) = 0 then adjacency.(i) <- Array.make degree.(i) l;
    adjacency.(i).(fill.(i)) <- l;
    fill.(i) <- fill.(i) + 1
  in
  let by_pair = Imap.create (Array.length link_at) in
  Array.iteri
    (fun k l ->
      let i = ends.(2 * k) and j = ends.((2 * k) + 1) in
      push i l;
      if j <> i then push j l;
      Imap.add by_pair (pair_key i j) k)
    link_at;
  { ordinal; members; adjacency; link_at; by_pair }

let make ~title ~nodes ~links =
  { title; nodes; links; node_at = Array.of_list nodes; index = build_index nodes links }

let title t = t.title

let nodes t = t.nodes

let links t = t.links

let asns t = List.map (fun n -> n.asn) t.nodes

let node_count t = Array.length t.node_at

let link_count t = List.length t.links

(* The AS's ordinal when it is a node, else -1. *)
let node_ordinal t asn =
  let i = Imap.find t.index.ordinal (Net.Asn.to_int asn) in
  if i < t.index.members then i else -1

let mem t asn = node_ordinal t asn >= 0

let ordinal t asn = match node_ordinal t asn with -1 -> None | i -> Some i

let find_node t asn = match node_ordinal t asn with -1 -> None | i -> Some t.node_at.(i)

let sdn_asns t = List.filter_map (fun n -> if n.role = Sdn then Some n.asn else None) t.nodes

let legacy_asns t =
  List.filter_map (fun n -> if n.role = Legacy then Some n.asn else None) t.nodes

let role_of t asn =
  match find_node t asn with
  | Some n -> n.role
  | None -> invalid_arg (Fmt.str "Spec.role_of: unknown %a" Net.Asn.pp asn)

(* Mark the given ASes as SDN-controlled, all others legacy.  The index
   holds no roles, so the new spec shares it. *)
let with_sdn t sdn =
  let is_sdn = Array.make (Array.length t.node_at) false in
  List.iter
    (fun asn ->
      match ordinal t asn with
      | Some i -> is_sdn.(i) <- true
      | None -> invalid_arg (Fmt.str "Spec.with_sdn: unknown %a" Net.Asn.pp asn))
    sdn;
  let nodes =
    List.map
      (fun n ->
        let role = if is_sdn.(node_ordinal t n.asn) then Sdn else Legacy in
        if role = n.role then n else { n with role })
      t.nodes
  in
  { t with nodes; node_at = Array.of_list nodes }

(* The links of [asn], link-list order; [||] for an AS on no link. *)
let adjacent t asn =
  match Imap.find t.index.ordinal (Net.Asn.to_int asn) with
  | -1 -> [||]
  | i -> t.index.adjacency.(i)

let other_end ~me l = if Net.Asn.equal l.a me then l.b else l.a

let links_of t asn = Array.to_list (adjacent t asn)

let neighbors t asn = Array.fold_right (fun l acc -> other_end ~me:asn l :: acc) (adjacent t asn) []

let degree t asn = Array.length (adjacent t asn)

let iter_links_of t asn f = Array.iter f (adjacent t asn)

let link_between t a b =
  match (ordinal t a, ordinal t b) with
  | Some i, Some j -> (
    match Imap.find t.index.by_pair (pair_key i j) with
    | -1 -> None
    | k -> Some t.index.link_at.(k))
  | _ -> None

(* Relationship of [asn]'s link partner towards [asn]: if the link says
   [a C2p b] then, seen from [a], the neighbor [b] is a Provider. *)
type neighbor_role = Customer | Provider | Peer | Sibling | Unrestricted

let neighbor_role_to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"
  | Sibling -> "sibling"
  | Unrestricted -> "unrestricted"

let neighbor_role_of_link ~me l =
  if Net.Asn.equal l.a me then
    match l.rel with
    | C2p -> Provider (* I am the customer; my neighbor is my provider *)
    | P2p -> Peer
    | S2s -> Sibling
    | Open -> Unrestricted
  else if Net.Asn.equal l.b me then
    match l.rel with
    | C2p -> Customer
    | P2p -> Peer
    | S2s -> Sibling
    | Open -> Unrestricted
  else invalid_arg "Spec.neighbor_role_of_link: AS not on link"

let neighbor_role t ~me ~neighbor =
  Option.map (neighbor_role_of_link ~me) (link_between t me neighbor)

(* Structural validity: referenced ASes exist, no duplicate ASNs or links,
   no self-links.  Returns human-readable problems, empty when valid.
   The index already holds the answers: a node is a duplicate when its
   ASN's ordinal is an earlier position, and a link when its pair maps
   to an earlier position. *)
let validate t =
  let idx = t.index in
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  List.iteri
    (fun i n -> if node_ordinal t n.asn <> i then problem "duplicate node %a" Net.Asn.pp n.asn)
    t.nodes;
  let ord asn =
    let i = Imap.find idx.ordinal (Net.Asn.to_int asn) in
    if i >= idx.members then problem "link references unknown %a" Net.Asn.pp asn;
    i
  in
  List.iteri
    (fun k l ->
      if Net.Asn.equal l.a l.b then problem "self-link on %a" Net.Asn.pp l.a;
      let i = ord l.a in
      let j = ord l.b in
      if Imap.find idx.by_pair (pair_key i j) <> k then
        problem "duplicate link %a<->%a" Net.Asn.pp l.a Net.Asn.pp l.b)
    t.links;
  List.rev !problems

let is_valid t = validate t = []

(* Undirected AS-level graph of the spec (node ids are raw ASN ints). *)
let to_graph t =
  let g = Net.Graph.create () in
  List.iter (fun n -> Net.Graph.add_node g (Net.Asn.to_int n.asn)) t.nodes;
  List.iter
    (fun l -> Net.Graph.add_edge g (Net.Asn.to_int l.a) (Net.Asn.to_int l.b))
    t.links;
  g

let is_connected t = Net.Graph.is_connected (to_graph t)
