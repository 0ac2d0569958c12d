(* Reference Dijkstra over [Net.Graph.t], on the test-side [Heap].  The
   oracle [As_graph_reference] runs on it; the library's controller uses
   its own dense-array Dijkstra. *)

(* Heap elements are (distance, insertion sequence, node): the sequence
   number makes pop order — and hence tie-breaking — deterministic. *)
let heap_cmp (d1, s1, _) (d2, s2, _) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Int.compare s1 s2

(* [(dist, pred)] from [src]; unreachable nodes are absent.  Raises
   [Invalid_argument] on a negative edge weight. *)
let dijkstra g src =
  let dist = Hashtbl.create 64 and pred = Hashtbl.create 64 in
  let heap = Heap.create ~dummy:(0.0, 0, 0) heap_cmp in
  let seq = ref 0 in
  let push d v =
    Heap.push heap (d, !seq, v);
    incr seq
  in
  Hashtbl.replace dist src 0.0;
  push 0.0 src;
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, _, v) ->
      (* Skip stale entries. *)
      if Float.equal (Hashtbl.find dist v) d then
        List.iter
          (fun (w, wt) ->
            if wt < 0.0 then invalid_arg "Shortest_paths.dijkstra: negative weight";
            let nd = d +. wt in
            let better =
              match Hashtbl.find_opt dist w with
              | None -> true
              | Some old -> nd < old
            in
            if better then begin
              Hashtbl.replace dist w nd;
              Hashtbl.replace pred w v;
              push nd w
            end)
          (Net.Graph.neighbors g v);
      loop ()
  in
  loop ();
  (dist, pred)

let distance g src dst =
  let dist, _ = dijkstra g src in
  Hashtbl.find_opt dist dst

(* Node sequence from [src] to [dst] inclusive. *)
let shortest_path g src dst =
  if src = dst then if Net.Graph.mem_node g src then Some [ src ] else None
  else begin
    let _, pred = dijkstra g src in
    if not (Hashtbl.mem pred dst) then None
    else begin
      let rec build v acc =
        if v = src then v :: acc else build (Hashtbl.find pred v) (v :: acc)
      in
      Some (build dst [])
    end
  end
