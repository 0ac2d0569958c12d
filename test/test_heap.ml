(* Heap (the test-side min-heap under [Shortest_paths]): ordering, growth,
   and a heapsort property. *)

let make () = Heap.create ~dummy:0 Int.compare

let test_empty () =
  let h = make () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h)

let test_ordering () =
  let h = make () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check int) "length" 7 (Heap.length h);
  let drained = List.init 7 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] drained;
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_growth () =
  let h = Heap.create ~capacity:2 ~dummy:0 Int.compare in
  for i = 1000 downto 1 do
    Heap.push h i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Heap.peek h)

let test_clear () =
  let h = make () in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h 7;
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Heap.pop h)

let prop_heapsort =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = make () in
      List.iter (Heap.push h) l;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort Int.compare l)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "min ordering" `Quick test_ordering;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "clear" `Quick test_clear;
    QCheck_alcotest.to_alcotest prop_heapsort;
  ]
