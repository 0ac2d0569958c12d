(* Routing information bases.

   Adj_in:  per (peer, prefix) routes as received (post-import-policy).
   Loc:     the selected best route per prefix.

   The Adj-RIB-Out is per peer and shares its table with the peer's
   update queue: see [Mrai].

   Storage is mutable exact-match tables ([Net.Ipv4.Prefix_table]): a
   RIB never needs longest-prefix match, and at Internet scale (10k+
   prefixes per peer) one hash of the packed prefix per operation beats
   both a persistent map's rebalancing allocation and a trie's
   node-per-prefix-bit walk.  Every ordered read sorts the packed keys,
   so iteration is [compare_prefix] ascending and dumps and decision
   ordering match the map-based reference implementations
   (enforced by test/test_rib_differential.ml). *)

module Tbl = Net.Ipv4.Prefix_table

module Adj_in = struct
  (* One prefix-major view: per prefix, the peers' routes in ascending
     peer order, each route's peer read from its [Route.source].
     [candidates] — run on every decision process — is then one lookup
     over a flat array.  Session maintenance ([drop_peer],
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

  let set t (route : Route.t) =
    let prefix = Route.prefix route in
    let peer = peer_of route in
    match Tbl.find prefix t.by_prefix with
    | None ->
      Tbl.set prefix [| route |] t.by_prefix;
      t.count <- t.count + 1
    | Some arr ->
      let i = position arr peer 0 in
      if holds arr i peer then arr.(i) <- route
      else begin
        let n = Array.length arr in
        let out = Array.make (n + 1) route in
        Array.blit arr 0 out 0 i;
        Array.blit arr i out (i + 1) (n - i);
        Tbl.set prefix out t.by_prefix;
        t.count <- t.count + 1
      end

  let remove t ~peer prefix =
    let peer = Net.Asn.to_int peer in
    match Tbl.find prefix t.by_prefix with
    | None -> ()
    | Some arr ->
      let n = Array.length arr in
      let i = position arr peer 0 in
      if holds arr i peer then begin
        t.count <- t.count - 1;
        if n = 1 then Tbl.remove prefix t.by_prefix
        else begin
          let out = Array.make (n - 1) arr.(0) in
          Array.blit arr 0 out 0 i;
          Array.blit arr (i + 1) out i (n - 1 - i);
          Tbl.set prefix out t.by_prefix
        end
      end

  let find t ~peer prefix =
    let peer = Net.Asn.to_int peer in
    match Tbl.find prefix t.by_prefix with
    | None -> None
    | Some arr ->
      let i = position arr peer 0 in
      if holds arr i peer then Some arr.(i) else None

  (* All routes for a prefix across peers, in ascending peer order. *)
  let candidates t prefix =
    match Tbl.find prefix t.by_prefix with None -> [] | Some arr -> Array.to_list arr

  let prefixes_from t ~peer =
    let peer = Net.Asn.to_int peer in
    List.filter_map
      (fun (prefix, arr) ->
        let i = position arr peer 0 in
        if holds arr i peer then Some prefix else None)
      (Tbl.entries t.by_prefix)

  let drop_peer t ~peer =
    let dropped = prefixes_from t ~peer in
    List.iter (remove t ~peer) dropped;
    dropped

  let all_prefixes t = Tbl.keys t.by_prefix

  let size t = t.count

  let clear t =
    Tbl.clear t.by_prefix;
    t.count <- 0
end

module Loc = struct
  type t = { best : Route.t Tbl.t }

  let create () = { best = Tbl.create () }

  let find t prefix = Tbl.find prefix t.best

  let set t (route : Route.t) = Tbl.set (Route.prefix route) route t.best

  let remove t prefix = Tbl.remove prefix t.best

  let entries t = Tbl.entries t.best

  let prefixes t = Tbl.keys t.best

  let size t = Tbl.size t.best

  let clear t = Tbl.clear t.best
end
