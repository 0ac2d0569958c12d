(* Net.Graph: structure, components, and the reference Dijkstra in
   [Shortest_paths]. *)

open Net

let test_add_remove () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  Graph.add_edge ~w:3.0 g 2 3;
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "edges" 2 (Graph.edge_count g);
  Alcotest.(check bool) "mem_edge both ways" true (Graph.mem_edge g 2 1);
  Alcotest.(check (option (float 0.0))) "weight" (Some 3.0) (Graph.weight g 3 2);
  Graph.remove_edge g 1 2;
  Alcotest.(check int) "edge removed" 1 (Graph.edge_count g);
  Alcotest.(check bool) "no longer adjacent" false (Graph.mem_edge g 1 2)

let test_replace_weight () =
  let g = Graph.create () in
  Graph.add_edge ~w:1.0 g 1 2;
  Graph.add_edge ~w:9.0 g 1 2;
  Alcotest.(check int) "still one edge" 1 (Graph.edge_count g);
  Alcotest.(check (option (float 0.0))) "weight replaced" (Some 9.0) (Graph.weight g 1 2)

let test_self_loop_rejected () =
  let g = Graph.create () in
  match Graph.add_edge g 1 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self-loop must raise"

let test_neighbors_sorted () =
  let g = Graph.create () in
  List.iter (fun v -> Graph.add_edge g 5 v) [ 9; 2; 7; 1 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 7; 9 ] (Graph.succ g 5)

let test_dijkstra_weighted () =
  let g = Graph.create () in
  Graph.add_edge ~w:1.0 g 1 2;
  Graph.add_edge ~w:1.0 g 2 3;
  Graph.add_edge ~w:5.0 g 1 3;
  Graph.add_edge ~w:1.0 g 3 4;
  Alcotest.(check (option (float 1e-9))) "dist via middle" (Some 3.0)
    (Shortest_paths.distance g 1 4);
  Alcotest.(check (option (list int))) "path" (Some [ 1; 2; 3; 4 ])
    (Shortest_paths.shortest_path g 1 4)

let test_dijkstra_unreachable () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  Graph.add_node g 99;
  Alcotest.(check (option (float 0.0))) "unreachable" None
    (Shortest_paths.distance g 1 99);
  Alcotest.(check (option (list int))) "no path" None
    (Shortest_paths.shortest_path g 1 99)

let test_shortest_path_self () =
  let g = Graph.create () in
  Graph.add_node g 1;
  Alcotest.(check (option (list int))) "self path" (Some [ 1 ])
    (Shortest_paths.shortest_path g 1 1)

let test_directed () =
  let g = Graph.create ~directed:true () in
  Graph.add_edge g 1 2;
  Alcotest.(check bool) "forward" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "no backward" false (Graph.mem_edge g 2 1);
  Alcotest.(check (option (list int))) "no reverse path" None
    (Shortest_paths.shortest_path g 2 1)

let test_components () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  Graph.add_edge g 3 4;
  Graph.add_edge g 4 5;
  Graph.add_node g 9;
  Alcotest.(check (list (list int))) "components" [ [ 1; 2 ]; [ 3; 4; 5 ]; [ 9 ] ]
    (Graph.components g);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g);
  Graph.add_edge g 2 3;
  Graph.add_edge g 5 9;
  Alcotest.(check bool) "now connected" true (Graph.is_connected g)

let test_copy_independent () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  let g' = Graph.copy g in
  Graph.add_edge g' 2 3;
  Alcotest.(check int) "copy grew" 2 (Graph.edge_count g');
  Alcotest.(check int) "original unchanged" 1 (Graph.edge_count g)

(* On unit-weight graphs Dijkstra distance = BFS hop count. *)
let prop_dijkstra_matches_bfs =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 12 in
      let* edges = list_size (int_range 1 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, edges))
  in
  QCheck.Test.make ~name:"unit-weight dijkstra = bfs levels" ~count:200
    (QCheck.make
       ~print:(fun (n, e) -> Fmt.str "n=%d edges=%d" n (List.length e))
       gen)
    (fun (n, edges) ->
      let g = Graph.create () in
      for v = 0 to n - 1 do
        Graph.add_node g v
      done;
      List.iter (fun (u, v) -> if u <> v then Graph.add_edge g u v) edges;
      (* BFS levels from 0 *)
      let level = Hashtbl.create 16 in
      Hashtbl.replace level 0 0;
      let q = Queue.create () in
      Queue.push 0 q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        let d = Hashtbl.find level v in
        List.iter
          (fun (w, _) ->
            if not (Hashtbl.mem level w) then begin
              Hashtbl.replace level w (d + 1);
              Queue.push w q
            end)
          (Graph.neighbors g v)
      done;
      let dist, _ = Shortest_paths.dijkstra g 0 in
      List.for_all
        (fun v ->
          match (Hashtbl.find_opt level v, Hashtbl.find_opt dist v) with
          | None, None -> true
          | Some l, Some d -> Float.equal (float_of_int l) d
          | _ -> false)
        (Graph.nodes g))

let suite =
  [
    Alcotest.test_case "add/remove edges" `Quick test_add_remove;
    Alcotest.test_case "replace weight" `Quick test_replace_weight;
    Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "path to self" `Quick test_shortest_path_self;
    Alcotest.test_case "directed graph" `Quick test_directed;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    QCheck_alcotest.to_alcotest prop_dijkstra_matches_bfs;
  ]
