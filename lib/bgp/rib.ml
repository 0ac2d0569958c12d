(* Routing information bases.

   Adj_in:  per (peer, prefix) routes as received (post-import-policy).
   Loc:     the selected best route per prefix.
   Adj_out: per (peer, prefix) attributes as advertised — consulted to
            suppress duplicate announcements and to know what to withdraw.

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
  (* Two views of the same routes.  The peer-major view (one table per
     peer, dropped when emptied) serves session maintenance
     ([drop_peer], [prefixes_from]); the prefix-major view makes
     [candidates] — run on every decision process — a single lookup
     yielding a compact flat array of (peer, route) cells in ascending
     peer order.  Both are updated together; [count] tracks the total so
     [size] is O(1). *)
  type t = {
    mutable by_peer : Route.t Tbl.t Net.Asn.Map.t;
    by_prefix : (int * Route.t) array Tbl.t;
    mutable count : int;
  }

  let create () = { by_peer = Net.Asn.Map.empty; by_prefix = Tbl.create (); count = 0 }

  (* Insert or replace a cell keeping ascending peer order.  Replacement
     mutates in place (the array is owned by the table); insertion copies. *)
  let array_set arr pi route =
    let n = Array.length arr in
    let rec pos i = if i = n || fst arr.(i) >= pi then i else pos (i + 1) in
    let i = pos 0 in
    if i < n && fst arr.(i) = pi then begin
      arr.(i) <- (pi, route);
      arr
    end
    else begin
      let out = Array.make (n + 1) (pi, route) in
      Array.blit arr 0 out 0 i;
      Array.blit arr i out (i + 1) (n - i);
      out
    end

  let array_remove arr pi =
    let n = Array.length arr in
    let rec pos i = if i = n || fst arr.(i) = pi then i else pos (i + 1) in
    let i = pos 0 in
    if i = n then arr
    else begin
      let out = Array.make (n - 1) arr.(0) in
      Array.blit arr 0 out 0 i;
      Array.blit arr (i + 1) out i (n - 1 - i);
      out
    end

  let set t ~peer (route : Route.t) =
    let prefix = Route.prefix route in
    let table =
      match Net.Asn.Map.find_opt peer t.by_peer with
      | Some tbl -> tbl
      | None ->
        let tbl = Tbl.create () in
        t.by_peer <- Net.Asn.Map.add peer tbl t.by_peer;
        tbl
    in
    let before = Tbl.size table in
    Tbl.set prefix route table;
    t.count <- t.count + Tbl.size table - before;
    let pi = Net.Asn.to_int peer in
    let arr = match Tbl.find prefix t.by_prefix with None -> [||] | Some a -> a in
    let arr' = array_set arr pi route in
    if arr' != arr || Array.length arr = 0 then Tbl.set prefix arr' t.by_prefix

  let remove_from_prefix t ~peer prefix =
    match Tbl.find prefix t.by_prefix with
    | None -> ()
    | Some arr ->
      let arr' = array_remove arr (Net.Asn.to_int peer) in
      if Array.length arr' = 0 then Tbl.remove prefix t.by_prefix
      else if arr' != arr then Tbl.set prefix arr' t.by_prefix

  let remove t ~peer prefix =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> ()
    | Some table ->
      let before = Tbl.size table in
      Tbl.remove prefix table;
      if Tbl.size table < before then begin
        t.count <- t.count - 1;
        if Tbl.is_empty table then t.by_peer <- Net.Asn.Map.remove peer t.by_peer;
        remove_from_prefix t ~peer prefix
      end

  let find t ~peer prefix =
    Option.bind (Net.Asn.Map.find_opt peer t.by_peer) (Tbl.find prefix)

  (* All routes for a prefix across peers, in ascending peer order. *)
  let candidates t prefix =
    match Tbl.find prefix t.by_prefix with
    | None -> []
    | Some arr -> Array.fold_right (fun (_, r) acc -> r :: acc) arr []

  let prefixes_from t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table -> Tbl.keys table

  let drop_peer t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table ->
      let dropped = Tbl.keys table in
      t.by_peer <- Net.Asn.Map.remove peer t.by_peer;
      List.iter (fun prefix -> remove_from_prefix t ~peer prefix) dropped;
      t.count <- t.count - List.length dropped;
      dropped

  let all_prefixes t = Tbl.keys t.by_prefix

  let size t = t.count

  let clear t =
    t.by_peer <- Net.Asn.Map.empty;
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

module Adj_out = struct
  (* One table per peer, dropped as soon as it empties (a peer whose last
     advertisement was withdrawn leaves no residue), with a maintained
     total count so [size] is O(1). *)
  type t = {
    mutable by_peer : Attrs.t Tbl.t Net.Asn.Map.t;
    mutable count : int;
  }

  let create () = { by_peer = Net.Asn.Map.empty; count = 0 }

  let set t ~peer prefix attrs =
    let table =
      match Net.Asn.Map.find_opt peer t.by_peer with
      | Some tbl -> tbl
      | None ->
        let tbl = Tbl.create () in
        t.by_peer <- Net.Asn.Map.add peer tbl t.by_peer;
        tbl
    in
    let before = Tbl.size table in
    Tbl.set prefix attrs table;
    t.count <- t.count + Tbl.size table - before

  let remove t ~peer prefix =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> ()
    | Some table ->
      let before = Tbl.size table in
      Tbl.remove prefix table;
      if Tbl.size table < before then begin
        t.count <- t.count - 1;
        if Tbl.is_empty table then t.by_peer <- Net.Asn.Map.remove peer t.by_peer
      end

  let find t ~peer prefix =
    Option.bind (Net.Asn.Map.find_opt peer t.by_peer) (Tbl.find prefix)

  let advertised t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table -> Tbl.entries table

  let drop_peer t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table ->
      let dropped = Tbl.keys table in
      t.by_peer <- Net.Asn.Map.remove peer t.by_peer;
      t.count <- t.count - List.length dropped;
      dropped

  let size t = t.count

  let entries t =
    Net.Asn.Map.bindings t.by_peer
    |> List.map (fun (peer, table) -> (peer, Tbl.entries table))

  let clear t =
    t.by_peer <- Net.Asn.Map.empty;
    t.count <- 0
end
