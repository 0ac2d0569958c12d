(* Routing information bases.

   Adj_in:  per (peer, prefix) routes as received (post-import-policy).
   Loc:     the selected best route per prefix.

   A peer's Adj-RIB-Out is not stored: once its queued changes (see
   [Mrai]) are sent, it is what the export policy gives for the Loc-RIB
   best, so [Loc] hands back the best each change replaces.

   Storage is mutable exact-match tables ([Net.Ipv4.Prefix_table]): a
   RIB never needs longest-prefix match, and at Internet scale (10k+
   prefixes per peer) one hash of the packed prefix per operation beats
   both a persistent map's rebalancing allocation and a trie's
   node-per-prefix-bit walk.  Every ordered read sorts the packed keys
   (the Loc-RIB's [iter] reuses its last sort until a prefix comes or
   goes), so iteration is [compare_prefix] ascending and dumps and
   decision ordering match the map-based reference implementations
   (enforced by test/test_rib_differential.ml). *)

module Tbl = Net.Ipv4.Prefix_table

module Adj_in = struct
  (* One prefix-major view: per prefix, the peers' routes in ascending
     peer order, each route's peer read from its [Route.source].  The
     decision process walks [routes], one lookup's flat array, in place;
     every update probes the table once.  Session maintenance ([drop_peer],
     [prefixes_from]) scans every prefix, which is fine on session-down
     only.  [count] tracks the total so [size] is O(1). *)
  type t = { by_prefix : Route.t array Tbl.t; mutable count : int }

  let create () = { by_prefix = Tbl.create (); count = 0 }

  let peer_of (route : Route.t) =
    match route.Route.source with
    | Route.Ebgp peer -> Net.Asn.to_int peer
    | Route.Local -> invalid_arg "Rib.Adj_in: a local route has no peer"

  (* The index of [peer]'s route in [arr], or where it would go. *)
  let rec position arr peer i =
    if i = Array.length arr || peer_of arr.(i) >= peer then i else position arr peer (i + 1)

  let holds arr i peer = i < Array.length arr && peer_of arr.(i) = peer

  let set t prefix (route : Route.t) =
    let key = Net.Ipv4.prefix_to_packed prefix in
    let peer = peer_of route in
    match Tbl.slot t.by_prefix key with
    | -1 ->
      ignore (Tbl.add t.by_prefix key [| route |]);
      t.count <- t.count + 1
    | s ->
      let arr = Tbl.value t.by_prefix s in
      let i = position arr peer 0 in
      if holds arr i peer then arr.(i) <- route
      else begin
        let n = Array.length arr in
        let out = Array.make (n + 1) route in
        Array.blit arr 0 out 0 i;
        Array.blit arr i out (i + 1) (n - i);
        Tbl.set_value t.by_prefix s out;
        t.count <- t.count + 1
      end

  let remove t ~peer prefix =
    let peer = Net.Asn.to_int peer in
    match Tbl.slot t.by_prefix (Net.Ipv4.prefix_to_packed prefix) with
    | -1 -> false
    | s ->
      let arr = Tbl.value t.by_prefix s in
      let n = Array.length arr in
      let i = position arr peer 0 in
      holds arr i peer
      && begin
           t.count <- t.count - 1;
           if n = 1 then Tbl.remove_slot t.by_prefix s
           else begin
             let out = Array.make (n - 1) arr.(0) in
             Array.blit arr 0 out 0 i;
             Array.blit arr (i + 1) out i (n - 1 - i);
             Tbl.set_value t.by_prefix s out
           end;
           true
         end

  let routes t prefix =
    match Tbl.slot t.by_prefix (Net.Ipv4.prefix_to_packed prefix) with
    | -1 -> [||]
    | s -> Tbl.value t.by_prefix s

  let find t ~peer prefix =
    let arr = routes t prefix and peer = Net.Asn.to_int peer in
    let i = position arr peer 0 in
    if holds arr i peer then Some arr.(i) else None

  let candidates t prefix = Array.to_list (routes t prefix)

  let prefixes_from t ~peer =
    let peer = Net.Asn.to_int peer in
    List.filter_map
      (fun (prefix, arr) ->
        let i = position arr peer 0 in
        if holds arr i peer then Some prefix else None)
      (Tbl.entries t.by_prefix)

  let drop_peer t ~peer =
    let dropped = prefixes_from t ~peer in
    List.iter (fun prefix -> ignore (remove t ~peer prefix)) dropped;
    dropped

  let all_prefixes t = Tbl.keys t.by_prefix

  let size t = t.count

  let clear t =
    Tbl.clear t.by_prefix;
    t.count <- 0
end

module Loc = struct
  (* [order] caches the slots in ascending prefix order for [iter]; [[||]]
     means not built (or an empty table).  Only a change to the key set
     moves slots, so only that drops it, and only [iter] builds it: a run
     that never walks the table in order never pays for the array. *)
  type t = { best : Route.t Tbl.t; mutable order : int array }

  let create () = { best = Tbl.create (); order = [||] }

  let stale t = if Array.length t.order > 0 then t.order <- [||]

  let find t prefix = Tbl.find prefix t.best

  (* Same source, wire-equal attrs and the same local-pref: replacing one
     with the other changes nothing a subscriber or a peer could see. *)
  let same_best (a : Route.t) (b : Route.t) =
    (match (a.Route.source, b.Route.source) with
    | Route.Local, Route.Local -> true
    | Route.Ebgp p, Route.Ebgp q -> Net.Asn.equal p q
    | Route.Local, Route.Ebgp _ | Route.Ebgp _, Route.Local -> false)
    && Attrs.wire_equal a.Route.attrs b.Route.attrs
    && a.Route.attrs.Attrs.local_pref = b.Route.attrs.Attrs.local_pref

  type replaced = Kept | Replaced of Route.t option

  let install t prefix (route : Route.t) =
    let key = Net.Ipv4.prefix_to_packed prefix in
    match Tbl.slot t.best key with
    | -1 ->
      ignore (Tbl.add t.best key route);
      stale t;
      Replaced None
    | s ->
      let old = Tbl.value t.best s in
      if same_best old route then Kept
      else begin
        Tbl.set_value t.best s route;
        Replaced (Some old)
      end

  let remove t prefix =
    match Tbl.slot t.best (Net.Ipv4.prefix_to_packed prefix) with
    | -1 -> None
    | s ->
      let old = Tbl.value t.best s in
      Tbl.remove_slot t.best s;
      stale t;
      Some old

  let entries t = Tbl.entries t.best

  let iter t f =
    if Array.length t.order <> Tbl.size t.best then t.order <- Tbl.sorted_slots t.best;
    let order = t.order in
    for k = 0 to Array.length order - 1 do
      let s = order.(k) in
      f (Tbl.packed_at t.best s) (Tbl.value t.best s)
    done

  let size t = Tbl.size t.best

  let clear t =
    Tbl.clear t.best;
    t.order <- [||]
end
