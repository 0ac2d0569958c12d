(* Weighted graph over integer node ids.

   Used for physical topologies and the controller's switch graph.
   Adjacency is a map per node (so edge
   insertion is O(log degree) — a clique no longer pays a quadratic
   rebuild per node) with a memoized sorted neighbor list, so traversal
   order — and therefore every algorithm built on top — stays
   deterministic and hot loops still iterate a plain list.

   Every structural mutation bumps [version]; callers that cache derived
   structures (the controller's sub-cluster table) key them on it. *)

module Int_map = Map.Make (Int)

type entry = {
  mutable out : float Int_map.t; (* neighbor -> weight *)
  mutable sorted : (int * float) list option; (* memoized [Int_map.bindings out] *)
}

type t = {
  adj : (int, entry) Hashtbl.t;
  directed : bool;
  mutable nedges : int;
  mutable version : int;
}

let create ?(directed = false) () =
  { adj = Hashtbl.create 64; directed; nedges = 0; version = 0 }

let version t = t.version

let touch t = t.version <- t.version + 1

let fresh_entry () = { out = Int_map.empty; sorted = Some [] }

let add_node t v =
  if not (Hashtbl.mem t.adj v) then begin
    Hashtbl.replace t.adj v (fresh_entry ());
    touch t
  end

let mem_node t v = Hashtbl.mem t.adj v

let nodes t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.adj [] |> List.sort Int.compare

let node_count t = Hashtbl.length t.adj

let edge_count t = t.nedges

let neighbors t v =
  match Hashtbl.find_opt t.adj v with
  | None -> []
  | Some e -> (
    match e.sorted with
    | Some l -> l
    | None ->
      let l = Int_map.bindings e.out in
      e.sorted <- Some l;
      l)

let succ t v = List.map fst (neighbors t v)

let weight t u v =
  match Hashtbl.find_opt t.adj u with
  | None -> None
  | Some e -> Int_map.find_opt v e.out

let mem_edge t u v = Option.is_some (weight t u v)

let entry t v =
  match Hashtbl.find_opt t.adj v with
  | Some e -> e
  | None ->
    let e = fresh_entry () in
    Hashtbl.replace t.adj v e;
    e

(* True when the half-edge is new or its weight changed. *)
let add_half t u v w =
  let e = entry t u in
  ignore (entry t v);
  match Int_map.find_opt v e.out with
  | Some old when Float.equal old w -> false
  | _ ->
    e.out <- Int_map.add v w e.out;
    e.sorted <- None;
    true

let add_edge ?(w = 1.0) t u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let existed = mem_edge t u v in
  let changed = add_half t u v w in
  let changed = (if not t.directed then add_half t v u w else false) || changed in
  if not existed then t.nedges <- t.nedges + 1;
  (* Re-adding an existing edge with its existing weight is a no-op and
     keeps [version] stable, so redundant PORT_STATUS events stay
     skippable for version-keyed caches. *)
  if changed then touch t

let remove_half t u v =
  match Hashtbl.find_opt t.adj u with
  | None -> false
  | Some e ->
    if Int_map.mem v e.out then begin
      e.out <- Int_map.remove v e.out;
      e.sorted <- None;
      true
    end
    else false

let remove_edge t u v =
  let existed = remove_half t u v in
  if not t.directed then ignore (remove_half t v u);
  if existed then begin
    t.nedges <- t.nedges - 1;
    touch t
  end

let edges t =
  let all =
    Hashtbl.fold
      (fun u e acc -> Int_map.fold (fun v w acc -> (u, v, w) :: acc) e.out acc)
      t.adj []
  in
  let all = if t.directed then all else List.filter (fun (u, v, _) -> u < v) all in
  List.sort (fun (a, b, _) (c, d, _) -> if a <> c then Int.compare a c else Int.compare b d) all

let copy t =
  let g = create ~directed:t.directed () in
  Hashtbl.iter (fun v e -> Hashtbl.replace g.adj v { out = e.out; sorted = e.sorted }) t.adj;
  g.nedges <- t.nedges;
  g.version <- t.version;
  g

let bfs_reachable t src =
  if not (mem_node t src) then []
  else begin
    let visited = Hashtbl.create 64 in
    Hashtbl.replace visited src ();
    let queue = Queue.create () in
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun (w, _) ->
          if not (Hashtbl.mem visited w) then begin
            Hashtbl.replace visited w ();
            Queue.push w queue
          end)
        (neighbors t v)
    done;
    Hashtbl.fold (fun v () acc -> v :: acc) visited [] |> List.sort Int.compare
  end

(* Connected components of the undirected view, each sorted, listed by
   smallest member. *)
let components t =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun v ->
      if Hashtbl.mem seen v then None
      else begin
        let comp = bfs_reachable t v in
        List.iter (fun w -> Hashtbl.replace seen w ()) comp;
        Some comp
      end)
    (nodes t)

let is_connected t =
  match nodes t with
  | [] -> true
  | v :: _ -> List.length (bfs_reachable t v) = node_count t
