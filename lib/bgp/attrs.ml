(* BGP path attributes, hash-consed.

   Every construction funnels through [intern], which returns a canonical
   value per distinct attribute content: equal logical attrs are the SAME
   physical value, with small-int ids for O(1) equality.  A 10k-AS table
   stores each distinct AS-path once no matter how many (peer, prefix)
   slots reference it.

   Intern tables are domain-local (Domain.DLS): [Engine.Pool] runs whole
   experiments on separate domains, and each simulation constructs and
   compares attrs only within its own domain.  Ids are used ONLY for
   equality, never for ordering, so domain-local id assignment cannot
   perturb deterministic results. *)

type origin = Igp | Egp | Incomplete

let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_to_string = function Igp -> "i" | Egp -> "e" | Incomplete -> "?"

(* Content fields first, cached fields last: polymorphic [compare] on two
   canonical values resolves on content before it can reach the ids, and
   full-content-equal values are the same canonical value (ids equal), so
   structural equality/ordering semantics are unchanged. *)
type t = {
  as_path : Net.Asn.t list; (* leftmost = most recent hop *)
  next_hop : Net.Ipv4.addr;
  local_pref : int;
  med : int;
  origin : origin;
  communities : Community.Set.t;
  path_len : int; (* cached List.length as_path *)
  wire_id : int; (* canonical id of the wire-visible attrs (no local_pref) *)
  id : int; (* canonical id of the full attribute set *)
}

let default_local_pref = 100

(* Wire-visible content, with communities as their canonical sorted element
   list: two equal sets can have different AVL shapes, so the raw set is
   not a safe structural hash-table key. *)
type wire_key =
  Net.Asn.t list * Net.Ipv4.addr * int * origin * Community.t list

(* Int-keyed: wire ids are dense and sequential, so the identity is a
   perfect hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash (i : int) = i
end)

type tables = {
  paths : (Net.Asn.t list, Net.Asn.t list) Hashtbl.t; (* logical -> canonical *)
  wires : (wire_key, int) Hashtbl.t;
  (* wire_id -> its canonical values, one per local_pref: the full table,
     and the memo [with_local_pref] restamps through without rehashing
     the path. *)
  full : t list Itbl.t;
  mutable next_wire : int;
  mutable next_id : int;
}

let tables_key =
  Domain.DLS.new_key (fun () ->
      {
        paths = Hashtbl.create 1024;
        wires = Hashtbl.create 1024;
        full = Itbl.create 1024;
        next_wire = 0;
        next_id = 0;
      })

let intern_path tbl path =
  match path with
  | [] -> []
  | _ -> (
    match Hashtbl.find_opt tbl.paths path with
    | Some canonical -> canonical
    | None ->
      Hashtbl.add tbl.paths path path;
      path)

let rec find_local_pref lp = function
  | [] -> None
  | t :: rest -> if t.local_pref = lp then Some t else find_local_pref lp rest

(* The canonical value for wire-visible content [wire_id] (whose fields
   are the rest of the arguments) stamped with [local_pref]. *)
let canonical tbl ~wire_id ~as_path ~next_hop ~local_pref ~med ~origin ~communities =
  let variants = Option.value (Itbl.find_opt tbl.full wire_id) ~default:[] in
  match find_local_pref local_pref variants with
  | Some t -> t
  | None ->
    let id = tbl.next_id in
    tbl.next_id <- id + 1;
    let t =
      {
        as_path;
        next_hop;
        local_pref;
        med;
        origin;
        communities;
        path_len = List.length as_path;
        wire_id;
        id;
      }
    in
    Itbl.replace tbl.full wire_id (t :: variants);
    t

let intern ~as_path ~next_hop ~local_pref ~med ~origin ~communities =
  let tbl = Domain.DLS.get tables_key in
  let as_path = intern_path tbl as_path in
  let wkey = (as_path, next_hop, med, origin, Community.Set.elements communities) in
  let wire_id =
    match Hashtbl.find_opt tbl.wires wkey with
    | Some id -> id
    | None ->
      let id = tbl.next_wire in
      tbl.next_wire <- id + 1;
      Hashtbl.add tbl.wires wkey id;
      id
  in
  canonical tbl ~wire_id ~as_path ~next_hop ~local_pref ~med ~origin ~communities

let make ?(as_path = []) ?(local_pref = default_local_pref) ?(med = 0) ?(origin = Igp)
    ?(communities = Community.Set.empty) ~next_hop () =
  intern ~as_path ~next_hop ~local_pref ~med ~origin ~communities

let as_path t = t.as_path

let path_length t = t.path_len

(* A top-level walk: [List.exists (Net.Asn.equal asn)] would allocate a
   closure per call, and export checks every peer against the path. *)
let rec path_mem asn = function
  | [] -> false
  | a :: rest -> Net.Asn.equal a asn || path_mem asn rest

let path_contains t asn = path_mem asn t.as_path

let prepend t asn =
  (* [t.as_path] is canonical, so the new cons shares its tail; interning
     the cons then shares the whole path across all routes carrying it. *)
  intern ~as_path:(asn :: t.as_path) ~next_hop:t.next_hop ~local_pref:t.local_pref
    ~med:t.med ~origin:t.origin ~communities:t.communities

(* [times] own-ASN prepends, the router's next hop and the default
   local-pref in one intern: the per-peer export content, without the
   intermediate canonical values a [prepend]/[with_next_hop]/
   [with_local_pref] chain would create (and the intern tables keep). *)
let exported t ~asn ~times ~next_hop =
  let rec prepend_n n path = if n <= 0 then path else prepend_n (n - 1) (asn :: path) in
  intern ~as_path:(prepend_n times t.as_path) ~next_hop ~local_pref:default_local_pref
    ~med:t.med ~origin:t.origin ~communities:t.communities

let origin_as t =
  match List.rev t.as_path with [] -> None | last :: _ -> Some last

let neighbor_as t = match t.as_path with [] -> None | first :: _ -> Some first

(* Restamping keeps the wire-visible content, so the canonical result is
   found from [t.wire_id] alone: no path or wire-key hashing on import. *)
let with_local_pref t lp =
  if lp = t.local_pref then t
  else
    canonical (Domain.DLS.get tables_key) ~wire_id:t.wire_id ~as_path:t.as_path
      ~next_hop:t.next_hop ~local_pref:lp ~med:t.med ~origin:t.origin
      ~communities:t.communities

let with_next_hop t nh =
  if Net.Ipv4.equal_addr nh t.next_hop then t
  else
    intern ~as_path:t.as_path ~next_hop:nh ~local_pref:t.local_pref ~med:t.med
      ~origin:t.origin ~communities:t.communities

let with_med t med =
  if med = t.med then t
  else
    intern ~as_path:t.as_path ~next_hop:t.next_hop ~local_pref:t.local_pref ~med
      ~origin:t.origin ~communities:t.communities

let add_community t c =
  if Community.Set.mem c t.communities then t
  else
    intern ~as_path:t.as_path ~next_hop:t.next_hop ~local_pref:t.local_pref
      ~med:t.med ~origin:t.origin
      ~communities:(Community.Set.add c t.communities)

let has_community t c = Community.Set.mem c t.communities

let equal a b = a == b

(* Equality of everything a peer would see on the wire: used to suppress
   duplicate advertisements in Adj-RIB-Out.  With interning this is a
   single int comparison. *)
let wire_equal a b = a.wire_id = b.wire_id

let id t = t.id

let wire_id t = t.wire_id

type intern_stats = { distinct_paths : int; distinct_wire : int; distinct_full : int }

let intern_stats () =
  let tbl = Domain.DLS.get tables_key in
  {
    distinct_paths = Hashtbl.length tbl.paths;
    distinct_wire = Hashtbl.length tbl.wires;
    distinct_full = tbl.next_id;
  }

let pp_path ppf path =
  if path = [] then Fmt.string ppf "(empty)"
  else Fmt.(list ~sep:(any " ") Net.Asn.pp) ppf path

let pp ppf t =
  Fmt.pf ppf "path=[%a] nh=%a lp=%d med=%d origin=%s" pp_path t.as_path Net.Ipv4.pp_addr
    t.next_hop t.local_pref t.med (origin_to_string t.origin)
