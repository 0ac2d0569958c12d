(* BGP path attributes, hash-consed.

   Every construction funnels through one intern set, which returns a
   canonical value per distinct attribute content: equal logical attrs are
   the SAME physical value, and each carries a small-int wire id for O(1)
   wire equality.  A route's attrs share their AS-path tail with the attrs
   they were prepended to, so a 10k-AS table stores little more than one
   cons per distinct set.

   The set is weak: it keeps no value alive, so a set that no RIB,
   Adj-RIB-Out or caller references is reclaimed by the GC, and a sweep of
   many experiments in one process holds only the live experiment's sets.

   The set is domain-local (Domain.DLS): [Engine.Pool] runs whole
   experiments on separate domains, and each simulation constructs and
   compares attrs only within its own domain.  Wire ids are used ONLY for
   equality, never for ordering, so domain-local id assignment cannot
   perturb deterministic results. *)

type origin = Igp | Egp | Incomplete

let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_to_string = function Igp -> "i" | Egp -> "e" | Incomplete -> "?"

(* Content fields first, cached fields last: polymorphic [compare] on two
   canonical values resolves on content before it can reach the cached
   fields, and full-content-equal values are the same canonical value, so
   structural equality/ordering semantics are unchanged. *)
type t = {
  as_path : Net.Asn.t list; (* leftmost = most recent hop *)
  next_hop : Net.Ipv4.addr;
  local_pref : int;
  med : int;
  origin : origin;
  path_len : int; (* cached List.length as_path *)
  path_hash : int; (* [path_hash_of as_path], extended one prepend at a time *)
  wire_id : int; (* canonical id of the wire-visible attrs (no local_pref) *)
}

let default_local_pref = 100

let mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let path_hash_of path = List.fold_right (fun asn h -> mix h (Net.Asn.to_int asn)) path 0

(* The intern set's key for the wire-visible content only: a hash with
   the sign bit and the low [lp_bits] clear.  Every local-pref variant of
   one wire content has the same key, hence the same home slot and one
   probe run; a slot's tag adds the low bits of its value's local-pref. *)
let lp_width = 8

let lp_bits = (1 lsl lp_width) - 1

let content_key ~path_hash ~next_hop ~med ~origin =
  let h = mix path_hash (Net.Ipv4.addr_to_bits next_hop) in
  mix (mix h med) (origin_rank origin) land (max_int lxor lp_bits)

let wire_key t = content_key ~path_hash:t.path_hash ~next_hop:t.next_hop ~med:t.med ~origin:t.origin

let tag wire local_pref = wire lor (local_pref land lp_bits)

(* Paths of canonical values share tails, so the physical check usually
   ends the walk at the first shared cons. *)
let rec path_equal a b =
  a == b
  || match (a, b) with
     | x :: xs, y :: ys -> Net.Asn.equal x y && path_equal xs ys
     | _ -> false

let wire_content_equal a b =
  a.med = b.med && a.origin = b.origin && a.path_len = b.path_len
  && Net.Ipv4.equal_addr a.next_hop b.next_hop
  && path_equal a.as_path b.as_path

(* The intern set: open addressing with linear probing over two parallel
   arrays, a strong one of slot tags and a weak one of values.  A probe
   compares tags and reads the weak array ([Weak.get] costs about nine
   plain reads) only on a match, so a hit costs one read.  A slot is
   [free] until a value is stored there; a slot whose value the GC
   cleared keeps its tag as a tombstone, so every value with a given home
   slot lies on the unbroken run of non-free slots from it.  The
   tombstones go and the table is sized by its live values on a store
   that leaves it over three quarters used ([rebuild]), and at the end of
   a major GC that leaves about an eighth or less of it live ([trim]), so
   a dropped experiment's table shrinks without another intern. *)
let free = -1

let exact = -1 (* a tag selector: the whole tag, local-pref bits included *)

let any_lp = lnot lp_bits (* a tag selector: the wire key only *)

let min_capacity = 1024

type table = {
  mutable tags : int array; (* power-of-two length; [free] or a value's tag *)
  mutable values : t Weak.t; (* same length *)
  mutable used : int; (* non-free slots: live values and tombstones *)
  mutable next_wire : int;
  mutable at : int; (* where the last probe stopped: the hit, or the free slot *)
  mutable busy : bool; (* an intern is under way: the GC alarm leaves the arrays alone *)
}

(* The "no value" result of a probe, never stored in the intern set. *)
let vacant =
  {
    as_path = [];
    next_hop = Net.Ipv4.addr_of_int32 0l;
    local_pref = 0;
    med = 0;
    origin = Igp;
    path_len = 0;
    path_hash = 0;
    wire_id = -1;
  }

let home tag mask = (tag lsr lp_width) land mask

let rec free_slot tags mask i =
  if tags.(i) = free then i else free_slot tags mask ((i + 1) land mask)

(* The smallest power of two from [cap] at most two thirds full with
   [live] values: a table that outgrows three quarters full doubles.  A
   probe compares tags in one int array, so long runs stay cheap, and the
   two arrays cost no more per value than the one strong array of values
   the set had at half full. *)
let rec capacity_for live cap =
  if 2 * cap >= 3 * live then cap else capacity_for live (2 * cap)

let count_live tbl =
  let n = ref 0 in
  for i = 0 to Array.length tbl.tags - 1 do
    if tbl.tags.(i) <> free && Weak.check tbl.values i then incr n
  done;
  !n

(* Move the live values into fresh arrays of [cap] slots; returns how
   many moved.  Each moves by [Weak.get] and [Weak.set]: a one-slot
   [Weak.blit] is cheaper in a micro-benchmark, but it cleans both whole
   arrays while the GC sweeps ephemerons, which makes a move quadratic. *)
let move tbl cap =
  let old_tags = tbl.tags and old_values = tbl.values in
  let tags = Array.make cap free and values = Weak.create cap in
  let mask = cap - 1 in
  let live = ref 0 in
  for i = 0 to Array.length old_tags - 1 do
    let tag = old_tags.(i) in
    if tag <> free then
      match Weak.get old_values i with
      | Some _ as cell ->
        let j = free_slot tags mask (home tag mask) in
        tags.(j) <- tag;
        Weak.set values j cell;
        incr live
      | None -> ()
  done;
  tbl.tags <- tags;
  tbl.values <- values;
  tbl.used <- !live;
  !live

(* Drop the tombstones and size the arrays to at most two thirds full:
   first by [used], which bounds the live count, then, if the tombstones
   were many, again by the count that moved. *)
let rebuild tbl =
  let cap = capacity_for tbl.used min_capacity in
  let fit = capacity_for (move tbl cap) min_capacity in
  if fit < cap then ignore (move tbl fit)

(* Live values among 64 evenly spaced slots: at most 8 estimates a table
   an eighth or less live, without reading every weak slot. *)
let sampled_live tbl =
  let stride = Array.length tbl.tags / 64 and n = ref 0 in
  for k = 0 to 63 do
    let i = k * stride in
    if tbl.tags.(i) <> free && Weak.check tbl.values i then incr n
  done;
  !n

(* Run at the end of every major GC.  An intern holds slot indices across
   allocations, where the alarm can run, so a busy table waits for the
   next cycle. *)
let trim tbl =
  if (not tbl.busy) && Array.length tbl.tags > min_capacity && sampled_live tbl <= 8 then begin
    tbl.busy <- true;
    let cap = capacity_for (count_live tbl) min_capacity in
    if cap < Array.length tbl.tags then ignore (move tbl cap);
    tbl.busy <- false
  end

(* A fresh domain's table, with its alarm.  The alarm reaches the table
   through a weak pointer, so a finished domain's table is reclaimed and
   its alarm then deletes itself. *)
let create_table () =
  let tbl =
    {
      tags = Array.make min_capacity free;
      values = Weak.create min_capacity;
      used = 0;
      next_wire = 0;
      at = 0;
      busy = false;
    }
  in
  let self = Weak.create 1 and alarm = ref None in
  Weak.set self 0 (Some tbl);
  alarm :=
    Some
      (Gc.create_alarm (fun () ->
           match Weak.get self 0 with
           | Some tbl -> trim tbl
           | None -> Option.iter Gc.delete_alarm !alarm));
  tbl

let table_key = Domain.DLS.new_key create_table

(* The table of an intern under way; [release] ends it. *)
let acquire () =
  let tbl = Domain.DLS.get table_key in
  tbl.busy <- true;
  tbl

let release tbl v =
  tbl.busy <- false;
  v

(* Where the probes stop: on a hit, [at] is the value's slot; on a miss,
   the free slot ending the run, where [store] puts the new value. *)
let stop tbl i v =
  tbl.at <- i;
  v

(* From [i], the live value whose tag, under selector [sel], is [tag] and
   whose content is [key]'s: all of it for [exact], the wire-visible part
   for [any_lp]. *)
let rec find_content tbl mask key sel tag i =
  let s = tbl.tags.(i) in
  if s = free then stop tbl i vacant
  else if s land sel <> tag then find_content tbl mask key sel tag ((i + 1) land mask)
  else
    match Weak.get tbl.values i with
    | Some v when wire_content_equal v key && (sel = any_lp || v.local_pref = key.local_pref)
      ->
      stop tbl i v
    | Some _ | None -> find_content tbl mask key sel tag ((i + 1) land mask)

(* From [i], the live variant of wire [wire_id] with [local_pref]. *)
let rec find_variant tbl mask tag wire_id local_pref i =
  let s = tbl.tags.(i) in
  if s = free then stop tbl i vacant
  else if s <> tag then find_variant tbl mask tag wire_id local_pref ((i + 1) land mask)
  else
    match Weak.get tbl.values i with
    | Some v when v.wire_id = wire_id && v.local_pref = local_pref -> stop tbl i v
    | Some _ | None -> find_variant tbl mask tag wire_id local_pref ((i + 1) land mask)

let fresh_wire tbl =
  let w = tbl.next_wire in
  tbl.next_wire <- w + 1;
  w

(* The wire id for new content: a live variant's ([sibling], from a
   probe under [any_lp]), or a fresh one. *)
let wire_id_of tbl sibling = if sibling == vacant then fresh_wire tbl else sibling.wire_id

(* Make [t], built with its wire id, canonical at free slot [i]. *)
let store tbl i tag t =
  tbl.tags.(i) <- tag;
  Weak.set tbl.values i (Some t);
  tbl.used <- tbl.used + 1;
  if 4 * tbl.used > 3 * Array.length tbl.tags then rebuild tbl;
  t

(* The exact value first: a hit reads one weak slot.  Only new content
   walks the run again, for a local-pref variant's wire id. *)
let intern key =
  let tbl = acquire () in
  let wire = wire_key key in
  let mask = Array.length tbl.tags - 1 in
  let i = home wire mask in
  let tag = tag wire key.local_pref in
  let v = find_content tbl mask key exact tag i in
  release tbl
    (if v != vacant then v
     else
       let slot = tbl.at in
       let wire_id = wire_id_of tbl (find_content tbl mask key any_lp wire i) in
       store tbl slot tag { key with wire_id })

let make ?(as_path = []) ?(local_pref = default_local_pref) ?(med = 0) ?(origin = Igp) ~next_hop
    () =
  intern
    {
      as_path;
      next_hop;
      local_pref;
      med;
      origin;
      path_len = List.length as_path;
      path_hash = path_hash_of as_path;
      wire_id = -1;
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

(* [find_content] for the content of [t] with [asn] prepended, [next_hop]
   and the default local-pref, without building it. *)
let rec find_exported tbl mask t ~asn ~next_hop sel tag i =
  let s = tbl.tags.(i) in
  if s = free then stop tbl i vacant
  else if s land sel <> tag then find_exported tbl mask t ~asn ~next_hop sel tag ((i + 1) land mask)
  else
    match Weak.get tbl.values i with
    | Some ({ as_path = first :: rest; _ } as v)
      when v.med = t.med && v.origin = t.origin
           && v.path_len = t.path_len + 1
           && Net.Ipv4.equal_addr v.next_hop next_hop
           && Net.Asn.equal first asn && path_equal rest t.as_path
           && (sel = any_lp || v.local_pref = default_local_pref) ->
      stop tbl i v
    | Some _ | None -> find_exported tbl mask t ~asn ~next_hop sel tag ((i + 1) land mask)

(* The own-ASN prepend, the router's next hop and the default local-pref
   in one intern: the export content, without the intermediate canonical
   values a [prepend]/[with_next_hop]/[with_local_pref] chain would
   create.  Export runs on every best change, so the set is probed with
   the would-be content and the value is built only when it is new. *)
let exported t ~asn ~next_hop =
  let path_hash = mix t.path_hash (Net.Asn.to_int asn) in
  let tbl = acquire () in
  let wire = content_key ~path_hash ~next_hop ~med:t.med ~origin:t.origin in
  let mask = Array.length tbl.tags - 1 in
  let i = home wire mask in
  let tag = tag wire default_local_pref in
  let v = find_exported tbl mask t ~asn ~next_hop exact tag i in
  release tbl
    (if v != vacant then v
     else
       let slot = tbl.at in
       let sibling = find_exported tbl mask t ~asn ~next_hop any_lp wire i in
       store tbl slot tag
         {
           t with
           as_path = asn :: t.as_path;
           path_len = t.path_len + 1;
           path_hash;
           next_hop;
           local_pref = default_local_pref;
           wire_id = wire_id_of tbl sibling;
         })

(* Restamping keeps the wire-visible content, so the variant is found on
   [t]'s probe run by [t.wire_id] alone: no path comparison on import. *)
let with_local_pref t lp =
  if lp = t.local_pref then t
  else
    let tbl = acquire () in
    let wire = wire_key t in
    let mask = Array.length tbl.tags - 1 in
    let tag = tag wire lp in
    let v = find_variant tbl mask tag t.wire_id lp (home wire mask) in
    release tbl
      (if v != vacant then v
       else store tbl tbl.at tag { t with local_pref = lp })

let with_next_hop t nh =
  if Net.Ipv4.equal_addr nh t.next_hop then t else intern { t with next_hop = nh }

let equal a b = a == b

(* Equality of everything a peer would see on the wire: used to suppress
   duplicate advertisements in Adj-RIB-Out.  With interning this is a
   single int comparison. *)
let wire_equal a b = a.wire_id = b.wire_id

(* One exporter's [exported] of [a] and of [b] are the same value
   exactly when their paths, MEDs and ORIGINs agree: the next hop and
   local-pref are the exporter's own. *)
let export_equal a b =
  a == b
  || a.path_hash = b.path_hash && a.med = b.med && a.origin = b.origin
     && a.path_len = b.path_len && path_equal a.as_path b.as_path

let wire_id t = t.wire_id

type intern_stats = { distinct_wire : int; distinct_full : int }

let intern_stats () =
  let tbl = Domain.DLS.get table_key in
  let wires = Hashtbl.create 64 and full = ref 0 in
  for i = 0 to Array.length tbl.tags - 1 do
    if tbl.tags.(i) <> free then
      match Weak.get tbl.values i with
      | Some v ->
        incr full;
        Hashtbl.replace wires v.wire_id ()
      | None -> ()
  done;
  { distinct_wire = Hashtbl.length wires; distinct_full = !full }

let pp_path ppf path =
  if path = [] then Fmt.string ppf "(empty)"
  else Fmt.(list ~sep:(any " ") Net.Asn.pp) ppf path

let pp ppf t =
  Fmt.pf ppf "path=[%a] nh=%a lp=%d med=%d origin=%s" pp_path t.as_path Net.Ipv4.pp_addr
    t.next_hop t.local_pref t.med (origin_to_string t.origin)
