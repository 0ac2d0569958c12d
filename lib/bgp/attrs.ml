(* BGP path attributes, hash-consed.

   Every construction funnels through one intern set, which returns a
   canonical value per distinct attribute content: equal logical attrs are
   the SAME physical value, with small-int ids for O(1) equality.  A
   route's attrs share their AS-path tail with the attrs they were
   prepended to, so a 10k-AS table stores little more than one cons per
   distinct set.

   The set is domain-local (Domain.DLS): [Engine.Pool] runs whole
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
  path_hash : int; (* [path_hash_of as_path], extended one prepend at a time *)
  wire_id : int; (* canonical id of the wire-visible attrs (no local_pref) *)
  id : int; (* canonical id of the full attribute set *)
}

let default_local_pref = 100

let mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let path_hash_of path = List.fold_right (fun asn h -> mix h (Net.Asn.to_int asn)) path 0

(* Hash of the wire-visible content only: every local-pref variant of one
   wire content has the same home slot, hence sits on one probe run. *)
let content_hash ~path_hash ~next_hop ~med ~origin communities =
  let h = mix path_hash (Net.Ipv4.addr_to_bits next_hop) in
  let h = mix (mix h med) (origin_rank origin) in
  Community.Set.fold (fun (asn, tag) h -> mix h ((asn lsl 16) lor tag)) communities h

let wire_hash t =
  content_hash ~path_hash:t.path_hash ~next_hop:t.next_hop ~med:t.med ~origin:t.origin
    t.communities

(* Paths of canonical values share tails, so the physical check usually
   ends the walk at the first shared cons. *)
let rec path_equal a b =
  a == b
  || match (a, b) with
     | x :: xs, y :: ys -> Net.Asn.equal x y && path_equal xs ys
     | _ -> false

let wire_content_equal a b =
  a.path_hash = b.path_hash && a.med = b.med && a.origin = b.origin
  && a.path_len = b.path_len
  && Net.Ipv4.equal_addr a.next_hop b.next_hop
  && path_equal a.as_path b.as_path
  && Community.Set.equal a.communities b.communities

(* The intern set: open addressing with linear probing, at most half full,
   [empty] marking a free slot.  Nothing is ever removed, so every value
   with a given home slot lies on the unbroken run from it. *)
type table = {
  mutable slots : t array; (* power-of-two length *)
  mutable next_wire : int;
  mutable next_id : int; (* = values in [slots] *)
}

let empty =
  {
    as_path = [];
    next_hop = Net.Ipv4.addr_of_int32 0l;
    local_pref = 0;
    med = 0;
    origin = Igp;
    communities = Community.Set.empty;
    path_len = 0;
    path_hash = 0;
    wire_id = -1;
    id = -1;
  }

let table_key =
  Domain.DLS.new_key (fun () -> { slots = Array.make 1024 empty; next_wire = 0; next_id = 0 })

(* The first slot from [i] holding [key]'s wire content, or the empty slot
   ending the run. *)
let rec find_wire slots mask key i =
  let s = slots.(i) in
  if s == empty || wire_content_equal s key then i
  else find_wire slots mask key ((i + 1) land mask)

(* From [i], the slot of wire [wire_id]'s variant with [local_pref], or the
   empty slot ending the run. *)
let rec find_variant slots mask wire_id local_pref i =
  let s = slots.(i) in
  if s == empty || (s.wire_id = wire_id && s.local_pref = local_pref) then i
  else find_variant slots mask wire_id local_pref ((i + 1) land mask)

let rec free_slot slots mask i =
  if slots.(i) == empty then i else free_slot slots mask ((i + 1) land mask)

let grow tbl =
  let old = tbl.slots in
  let slots = Array.make (2 * Array.length old) empty in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun t -> if t != empty then slots.(free_slot slots mask (wire_hash t land mask)) <- t)
    old;
  tbl.slots <- slots

(* Make [key] canonical at slot [i], the empty slot ending its run; the
   candidate's own ids are placeholders and are replaced. *)
let store tbl i key ~wire_id =
  let t = { key with wire_id; id = tbl.next_id } in
  tbl.slots.(i) <- t;
  tbl.next_id <- tbl.next_id + 1;
  if 2 * tbl.next_id > Array.length tbl.slots then grow tbl;
  t

let intern key =
  let tbl = Domain.DLS.get table_key in
  let slots = tbl.slots in
  let mask = Array.length slots - 1 in
  let i = find_wire slots mask key (wire_hash key land mask) in
  let found = slots.(i) in
  if found == empty then begin
    let wire_id = tbl.next_wire in
    tbl.next_wire <- wire_id + 1;
    store tbl i key ~wire_id
  end
  else
    let j = find_variant slots mask found.wire_id key.local_pref i in
    if slots.(j) == empty then store tbl j key ~wire_id:found.wire_id else slots.(j)

let make ?(as_path = []) ?(local_pref = default_local_pref) ?(med = 0) ?(origin = Igp)
    ?(communities = Community.Set.empty) ~next_hop () =
  intern
    {
      as_path;
      next_hop;
      local_pref;
      med;
      origin;
      communities;
      path_len = List.length as_path;
      path_hash = path_hash_of as_path;
      wire_id = -1;
      id = -1;
    }

let as_path t = t.as_path

let path_length t = t.path_len

(* A top-level walk: [List.exists (Net.Asn.equal asn)] would allocate a
   closure per call, and export checks every peer against the path. *)
let rec path_mem asn = function
  | [] -> false
  | a :: rest -> Net.Asn.equal a asn || path_mem asn rest

let path_contains t asn = path_mem asn t.as_path

let prepend t asn =
  (* the new cons shares [t.as_path], so the path costs one cons *)
  intern
    {
      t with
      as_path = asn :: t.as_path;
      path_len = t.path_len + 1;
      path_hash = mix t.path_hash (Net.Asn.to_int asn);
    }

(* Whether [path] is [times] copies of [asn] followed by [tail]. *)
let rec prepended path asn times tail =
  if times = 0 then path_equal path tail
  else
    match path with
    | x :: rest -> Net.Asn.equal x asn && prepended rest asn (times - 1) tail
    | [] -> false

let rec prepend_hash asn times h =
  if times = 0 then h else prepend_hash asn (times - 1) (mix h (Net.Asn.to_int asn))

let rec prepend_path asn times path =
  if times = 0 then path else prepend_path asn (times - 1) (asn :: path)

(* [find_wire] for the content of [t] with [times] prepends of [asn] and
   [next_hop], without building it. *)
let rec find_exported slots mask t ~asn ~times ~path_hash ~next_hop i =
  let s = slots.(i) in
  if
    s == empty
    || s.path_hash = path_hash && s.med = t.med && s.origin = t.origin
       && s.path_len = t.path_len + times
       && Net.Ipv4.equal_addr s.next_hop next_hop
       && prepended s.as_path asn times t.as_path
       && Community.Set.equal s.communities t.communities
  then i
  else find_exported slots mask t ~asn ~times ~path_hash ~next_hop ((i + 1) land mask)

(* [times] own-ASN prepends, the router's next hop and the default
   local-pref in one intern: the per-peer export content, without the
   intermediate canonical values a [prepend]/[with_next_hop]/
   [with_local_pref] chain would create (and the intern set keeps).
   Export runs on every best change, so the set is probed with the
   would-be content and the value is built only when it is new. *)
let exported t ~asn ~times ~next_hop =
  let times = max times 0 in
  let path_hash = prepend_hash asn times t.path_hash in
  let tbl = Domain.DLS.get table_key in
  let slots = tbl.slots in
  let mask = Array.length slots - 1 in
  let home =
    content_hash ~path_hash ~next_hop ~med:t.med ~origin:t.origin t.communities land mask
  in
  let i = find_exported slots mask t ~asn ~times ~path_hash ~next_hop home in
  let found = slots.(i) in
  let j =
    if found == empty then i else find_variant slots mask found.wire_id default_local_pref i
  in
  if slots.(j) != empty then slots.(j)
  else
    let key =
      {
        t with
        as_path = prepend_path asn times t.as_path;
        path_len = t.path_len + times;
        path_hash;
        next_hop;
        local_pref = default_local_pref;
      }
    in
    if found != empty then store tbl j key ~wire_id:found.wire_id
    else begin
      let wire_id = tbl.next_wire in
      tbl.next_wire <- wire_id + 1;
      store tbl j key ~wire_id
    end

let origin_as t =
  match List.rev t.as_path with [] -> None | last :: _ -> Some last

let neighbor_as t = match t.as_path with [] -> None | first :: _ -> Some first

(* Restamping keeps the wire-visible content, so the variant is found on
   [t]'s probe run by [t.wire_id] alone: no path or community comparison
   on import. *)
let with_local_pref t lp =
  if lp = t.local_pref then t
  else
    let tbl = Domain.DLS.get table_key in
    let mask = Array.length tbl.slots - 1 in
    let i = find_variant tbl.slots mask t.wire_id lp (wire_hash t land mask) in
    if tbl.slots.(i) == empty then store tbl i { t with local_pref = lp } ~wire_id:t.wire_id
    else tbl.slots.(i)

let with_next_hop t nh =
  if Net.Ipv4.equal_addr nh t.next_hop then t else intern { t with next_hop = nh }

let with_med t med = if med = t.med then t else intern { t with med }

let add_community t c =
  if Community.Set.mem c t.communities then t
  else intern { t with communities = Community.Set.add c t.communities }

let has_community t c = Community.Set.mem c t.communities

let equal a b = a == b

(* Equality of everything a peer would see on the wire: used to suppress
   duplicate advertisements in Adj-RIB-Out.  With interning this is a
   single int comparison. *)
let wire_equal a b = a.wire_id = b.wire_id

let id t = t.id

let wire_id t = t.wire_id

type intern_stats = { distinct_wire : int; distinct_full : int }

let intern_stats () =
  let tbl = Domain.DLS.get table_key in
  { distinct_wire = tbl.next_wire; distinct_full = tbl.next_id }

let pp_path ppf path =
  if path = [] then Fmt.string ppf "(empty)"
  else Fmt.(list ~sep:(any " ") Net.Asn.pp) ppf path

let pp ppf t =
  Fmt.pf ppf "path=[%a] nh=%a lp=%d med=%d origin=%s" pp_path t.as_path Net.Ipv4.pp_addr
    t.next_hop t.local_pref t.med (origin_to_string t.origin)
