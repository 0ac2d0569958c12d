(* Routing information base: the Adj-RIB-In and the Loc-RIB in one table.

   Per prefix, one [Attrs.t array]: a route is its interned attrs, so a
   cell points straight at the canonical value and a stored route costs
   its cell alone.  Cell 0 holds the selected best ([Attrs.vacant] when
   the prefix has none) and cells 1.. the peers' routes as received
   (post-import-policy), in ascending peer order, each route's peer read
   from the head of its AS path ([Route.neighbor]).  The best is always
   one of the learned routes or the router's local route, so the Loc-RIB
   costs one cell per prefix instead of a table of its own, and a
   decision probes the table once: it walks the learned cells in place
   and writes its winner into cell 0.  Interning makes equal wire content
   with equal local-pref one value, so a decision that picks the same
   route back is told by [==].  An entry lives while it holds a learned
   route or a best.

   A peer's Adj-RIB-Out is not stored: once its queued changes (see
   [Mrai]) are sent, it is what the export policy gives for the Loc-RIB
   best, so [Loc.decide] hands back the best each change replaces.

   Storage is a mutable exact-match table ([Net.Ipv4.Prefix_table]): a
   RIB never needs longest-prefix match, and at Internet scale (10k+
   prefixes per peer) one hash of the packed prefix per operation beats
   both a persistent map's rebalancing allocation and a trie's
   node-per-prefix-bit walk.  Every ordered read sorts the packed keys
   (the Loc-RIB's [iter] reuses its last sort until a prefix comes or
   goes), so iteration is [compare_prefix] ascending and dumps and
   decision ordering match the map-based reference implementations
   (enforced by test/test_rib_differential.ml).  Session maintenance
   ([drop_peer], [prefixes_from]) scans every prefix, which is fine on
   session-down only. *)

module Tbl = Net.Ipv4.Prefix_table

(* [order] caches the slots in ascending prefix order for [Loc.iter];
   [[||]] means not built (or an empty table).  Only a change to the key
   set moves slots, so only that drops it, and only [iter] builds it: a
   run that never walks the table in order never pays for the array.
   [learned] and [bests] count the two RIBs' routes, so both sizes are
   O(1). *)
type t = {
  by_prefix : Route.t array Tbl.t;
  mutable order : int array;
  mutable learned : int;
  mutable bests : int;
}

(* Cell 0 of a prefix without a best: a value no router can store. *)
let none = Attrs.vacant

let create () = { by_prefix = Tbl.create (); order = [||]; learned = 0; bests = 0 }

let stale t = if Array.length t.order > 0 then t.order <- [||]

let clear t =
  Tbl.clear t.by_prefix;
  t.order <- [||];
  t.learned <- 0;
  t.bests <- 0

(* The prefix's array, [[||]] when it has no entry: to be read and not
   kept across a change to the prefix. *)
let entry t prefix =
  match Tbl.slot t.by_prefix (Net.Ipv4.prefix_to_packed prefix) with
  | -1 -> [||]
  | s -> Tbl.value t.by_prefix s

module Adj_in = struct
  let peer_of = Route.neighbor

  (* The index of [peer]'s route in [arr], or where it would go. *)
  let rec position arr peer i =
    if i >= Array.length arr || peer_of arr.(i) >= peer then i else position arr peer (i + 1)

  let holds arr i peer = i < Array.length arr && peer_of arr.(i) = peer

  let set t prefix (route : Route.t) =
    let key = Net.Ipv4.prefix_to_packed prefix in
    let peer = peer_of route in
    if peer < 0 then invalid_arg "Rib.Adj_in: a local route has no peer";
    match Tbl.slot t.by_prefix key with
    | -1 ->
      ignore (Tbl.add t.by_prefix key [| none; route |]);
      stale t;
      t.learned <- t.learned + 1
    | s ->
      let arr = Tbl.value t.by_prefix s in
      let i = position arr peer 1 in
      if holds arr i peer then arr.(i) <- route
      else begin
        let n = Array.length arr in
        let out = Array.make (n + 1) route in
        Array.blit arr 0 out 0 i;
        Array.blit arr i out (i + 1) (n - i);
        Tbl.set_value t.by_prefix s out;
        t.learned <- t.learned + 1
      end

  let remove t ~peer prefix =
    let peer = Net.Asn.to_int peer in
    match Tbl.slot t.by_prefix (Net.Ipv4.prefix_to_packed prefix) with
    | -1 -> false
    | s ->
      let arr = Tbl.value t.by_prefix s in
      let n = Array.length arr in
      let i = position arr peer 1 in
      holds arr i peer
      && begin
           t.learned <- t.learned - 1;
           if n = 2 && arr.(0) == none then begin
             Tbl.remove_slot t.by_prefix s;
             stale t
           end
           else begin
             let out = Array.make (n - 1) arr.(0) in
             Array.blit arr 0 out 0 i;
             Array.blit arr (i + 1) out i (n - 1 - i);
             Tbl.set_value t.by_prefix s out
           end;
           true
         end

  let find t ~peer prefix =
    let arr = entry t prefix and peer = Net.Asn.to_int peer in
    let i = position arr peer 1 in
    if holds arr i peer then Some arr.(i) else None

  let candidates t prefix =
    let arr = entry t prefix in
    let rec from i acc = if i < 1 then acc else from (i - 1) (arr.(i) :: acc) in
    from (Array.length arr - 1) []

  let prefixes_from t ~peer =
    let peer = Net.Asn.to_int peer in
    List.filter_map
      (fun (prefix, arr) ->
        let i = position arr peer 1 in
        if holds arr i peer then Some prefix else None)
      (Tbl.entries t.by_prefix)

  let drop_peer t ~peer =
    let dropped = prefixes_from t ~peer in
    List.iter (fun prefix -> ignore (remove t ~peer prefix)) dropped;
    dropped

  let all_prefixes t =
    List.filter_map
      (fun (prefix, arr) -> if Array.length arr > 1 then Some prefix else None)
      (Tbl.entries t.by_prefix)

  let size t = t.learned
end

module Loc = struct
  let find t prefix =
    match entry t prefix with
    | [||] -> None
    | arr -> if arr.(0) == none then None else Some arr.(0)

  type change = Kept | Changed of { old : Route.t option; best : Route.t option }

  (* The index of the most preferred route in [arr.(i..)] and [arr.(best)]
     ([best] < 0: none yet). *)
  let rec best_learned arr i best =
    if i = Array.length arr then best
    else
      let best = if best < 0 || Decision.better arr.(i) arr.(best) then i else best in
      best_learned arr (i + 1) best

  (* [Decision.compare] is a total order, so weighing the local route
     against the learned winner picks what [Decision.select] would over
     all of them. *)
  let decide t prefix ~local =
    let key = Net.Ipv4.prefix_to_packed prefix in
    match Tbl.slot t.by_prefix key with
    | -1 -> (
      match local with
      | None -> Kept
      | Some route ->
        ignore (Tbl.add t.by_prefix key [| route |]);
        stale t;
        t.bests <- t.bests + 1;
        Changed { old = None; best = local })
    | s ->
      let arr = Tbl.value t.by_prefix s in
      let i = best_learned arr 1 (-1) in
      let best =
        match local with
        | None -> if i < 0 then none else arr.(i)
        | Some l -> if i >= 0 && Decision.better arr.(i) l then arr.(i) else l
      in
      let old = arr.(0) in
      if best == none then begin
        (* [old] is a best: an entry with neither a best nor a learned
           route does not exist. *)
        t.bests <- t.bests - 1;
        if Array.length arr = 1 then begin
          Tbl.remove_slot t.by_prefix s;
          stale t
        end
        else arr.(0) <- none;
        Changed { old = Some old; best = None }
      end
      else if old == none then begin
        arr.(0) <- best;
        t.bests <- t.bests + 1;
        Changed { old = None; best = Some best }
      end
      else if old == best then Kept
      else begin
        arr.(0) <- best;
        Changed { old = Some old; best = Some best }
      end

  let entries t =
    List.filter_map
      (fun (prefix, arr) -> if arr.(0) == none then None else Some (prefix, arr.(0)))
      (Tbl.entries t.by_prefix)

  let iter t f =
    let tbl = t.by_prefix in
    if Array.length t.order <> Tbl.size tbl then t.order <- Tbl.sorted_slots tbl;
    let order = t.order in
    for k = 0 to Array.length order - 1 do
      let s = order.(k) in
      let best = (Tbl.value tbl s).(0) in
      if best != none then f (Tbl.packed_at tbl s) best
    done

  let size t = t.bests
end
