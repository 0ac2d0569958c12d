(* Topology: spec validation, generators, dataset loaders. *)

let asn = Topology.Artificial.asn

let test_clique () =
  let s = Topology.Artificial.clique 5 in
  Alcotest.(check int) "nodes" 5 (Topology.Spec.node_count s);
  Alcotest.(check int) "edges" 10 (Topology.Spec.link_count s);
  Alcotest.(check bool) "valid" true (Topology.Spec.is_valid s);
  Alcotest.(check bool) "connected" true (Topology.Spec.is_connected s);
  Alcotest.(check int) "degree" 4 (List.length (Topology.Spec.neighbors s (asn 2)))

let test_star () =
  let s = Topology.Artificial.star 6 in
  Alcotest.(check int) "edges" 5 (Topology.Spec.link_count s);
  Alcotest.(check int) "hub degree" 5 (List.length (Topology.Spec.neighbors s (asn 0)));
  (* leaves are customers: seen from a leaf, the hub is its provider *)
  match Topology.Spec.links_of s (asn 1) with
  | [ l ] ->
    Alcotest.(check string) "leaf sees provider" "provider"
      (Topology.Spec.neighbor_role_to_string (Topology.Spec.neighbor_role_of_link ~me:(asn 1) l));
    Alcotest.(check string) "hub sees customer" "customer"
      (Topology.Spec.neighbor_role_to_string (Topology.Spec.neighbor_role_of_link ~me:(asn 0) l))
  | _ -> Alcotest.fail "leaf should have one link"

let test_ring_line () =
  let ring = Topology.Artificial.ring 7 in
  Alcotest.(check int) "ring edges" 7 (Topology.Spec.link_count ring);
  let line = Topology.Artificial.line 7 in
  Alcotest.(check int) "line edges" 6 (Topology.Spec.link_count line);
  List.iter
    (fun s -> Alcotest.(check bool) (Topology.Spec.title s) true (Topology.Spec.is_connected s))
    [ ring; line ]

let test_with_sdn () =
  let s = Topology.Artificial.clique 4 in
  let s = Topology.Spec.with_sdn s [ asn 1; asn 3 ] in
  Alcotest.(check int) "sdn count" 2 (List.length (Topology.Spec.sdn_asns s));
  Alcotest.(check int) "legacy count" 2 (List.length (Topology.Spec.legacy_asns s));
  Alcotest.(check bool) "role of" true (Topology.Spec.role_of s (asn 1) = Topology.Spec.Sdn);
  (* reassignment replaces, not accumulates *)
  let s = Topology.Spec.with_sdn s [ asn 0 ] in
  Alcotest.(check int) "sdn replaced" 1 (List.length (Topology.Spec.sdn_asns s));
  match Topology.Spec.with_sdn s [ Net.Asn.of_int 99 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown ASN must raise"

let test_validation () =
  let n = Topology.Spec.node in
  let bad_dup =
    Topology.Spec.make ~title:"dup" ~nodes:[ n (asn 0); n (asn 0) ] ~links:[]
  in
  Alcotest.(check bool) "duplicate node" false (Topology.Spec.is_valid bad_dup);
  let bad_unknown =
    Topology.Spec.make ~title:"unk" ~nodes:[ n (asn 0) ]
      ~links:[ Topology.Spec.link (asn 0) (asn 1) ]
  in
  Alcotest.(check bool) "unknown endpoint" false (Topology.Spec.is_valid bad_unknown);
  let bad_self =
    Topology.Spec.make ~title:"self" ~nodes:[ n (asn 0) ]
      ~links:[ Topology.Spec.link (asn 0) (asn 0) ]
  in
  Alcotest.(check bool) "self link" false (Topology.Spec.is_valid bad_self);
  let bad_dup_link =
    Topology.Spec.make ~title:"dl" ~nodes:[ n (asn 0); n (asn 1) ]
      ~links:[ Topology.Spec.link (asn 0) (asn 1); Topology.Spec.link (asn 1) (asn 0) ]
  in
  Alcotest.(check int) "duplicate link reported" 1
    (List.length (Topology.Spec.validate bad_dup_link))

let test_caida_parse () =
  let text = "# comment\n65001|65002|-1\n65002|65003|0\n65003|65004|2\n\n" in
  match Topology.Caida.parse_string text with
  | Error e -> Alcotest.failf "parse failed: %a" Topology.Caida.pp_parse_error e
  | Ok spec ->
    Alcotest.(check int) "nodes" 4 (Topology.Spec.node_count spec);
    Alcotest.(check int) "links" 3 (Topology.Spec.link_count spec);
    (* 65001|65002|-1 means 65001 is the provider *)
    let l = List.hd (Topology.Spec.links_of spec (Net.Asn.of_int 65001)) in
    Alcotest.(check string) "provider side" "customer"
      (Topology.Spec.neighbor_role_to_string
         (Topology.Spec.neighbor_role_of_link ~me:(Net.Asn.of_int 65001) l))

let test_caida_parse_errors () =
  (match Topology.Caida.parse_string "65001|65002|7" with
  | Error { Topology.Caida.line = 1; _ } -> ()
  | Error _ | Ok _ -> Alcotest.fail "unknown relationship must fail");
  match Topology.Caida.parse_string "not-a-line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must fail"

let test_caida_parse_malformed () =
  (* self-loops are structural corruption, not a droppable line *)
  (match Topology.Caida.parse_string "65001|65002|-1\n65003|65003|0\n" with
  | Error { Topology.Caida.line = 2; reason; _ } ->
    Alcotest.(check bool)
      "self-loop named" true
      (Astring_like.contains reason "self-loop")
  | Error e -> Alcotest.failf "wrong error: %a" Topology.Caida.pp_parse_error e
  | Ok _ -> Alcotest.fail "self-loop must fail");
  (* a repeated pair must be rejected even when the relationship agrees *)
  (match Topology.Caida.parse_string "65001|65002|-1\n65003|65004|0\n65001|65002|-1\n" with
  | Error { Topology.Caida.line = 3; reason; _ } ->
    Alcotest.(check bool)
      "duplicate cites first line" true
      (Astring_like.contains reason "line 1")
  | Error e -> Alcotest.failf "wrong error: %a" Topology.Caida.pp_parse_error e
  | Ok _ -> Alcotest.fail "duplicate pair must fail");
  (* ... and when it conflicts, and regardless of orientation *)
  match Topology.Caida.parse_string "65001|65002|-1\n65002|65001|0\n" with
  | Error { Topology.Caida.line = 2; _ } -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Topology.Caida.pp_parse_error e
  | Ok _ -> Alcotest.fail "conflicting reversed pair must fail"

let test_caida_roundtrip () =
  let rng = Engine.Rng.create 5 in
  let spec = Topology.Caida.generate ~tier1:3 ~tier2:5 ~stubs:8 rng in
  Alcotest.(check bool) "generated valid" true (Topology.Spec.is_valid spec);
  Alcotest.(check bool) "generated connected" true (Topology.Spec.is_connected spec);
  let text = Topology.Caida.render spec in
  match Topology.Caida.parse_string text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %a" Topology.Caida.pp_parse_error e
  | Ok back ->
    Alcotest.(check int) "same nodes" (Topology.Spec.node_count spec)
      (Topology.Spec.node_count back);
    Alcotest.(check int) "same links" (Topology.Spec.link_count spec)
      (Topology.Spec.link_count back)

let test_iplane_parse () =
  let text = "# pops\n0 4 3000\n1 5 2000\n4 0 1500\n2 3\n" in
  (* pops_per_as = 4: pops 0-3 -> AS65001, pops 4-7 -> AS65002 *)
  match Topology.Iplane.parse_string text with
  | Error e -> Alcotest.failf "parse failed: %a" Topology.Iplane.pp_parse_error e
  | Ok spec ->
    Alcotest.(check int) "ASes" 2 (Topology.Spec.node_count spec);
    (* links 0-4, 1-5 and 4-0 collapse to one AS link; 2-3 is intra-AS *)
    Alcotest.(check int) "links" 1 (Topology.Spec.link_count spec);
    let l = List.hd (Topology.Spec.links spec) in
    Alcotest.(check (option int)) "min latency kept" (Some 1500) l.Topology.Spec.delay_us

(* The file readers share one reader: a file parses as its text does, and
   a directory is refused with an error naming it (it used to say only
   "Value too large for defined data type"; a scenario file escaped as an
   exception). *)
let test_file_readers () =
  let dir = Filename.temp_dir "topology-test" "" in
  let file = Filename.concat dir "links.txt" in
  Out_channel.with_open_text file (fun oc -> output_string oc "65001|65002|-1\n");
  (match Topology.Caida.parse_file file with
  | Ok spec -> Alcotest.(check int) "file parsed" 1 (Topology.Spec.link_count spec)
  | Error e -> Alcotest.failf "parse failed: %a" Topology.Caida.pp_parse_error e);
  let names_dir what = function
    | Sys_error msg ->
      Alcotest.(check bool)
        (Fmt.str "%s: %S names the directory" what msg)
        true
        (Astring_like.contains msg dir && Astring_like.contains msg "directory")
    | e -> Alcotest.failf "%s: unexpected %s" what (Printexc.to_string e)
  in
  (match Topology.Caida.parse_file dir with
  | _ -> Alcotest.fail "caida: a directory parsed"
  | exception e -> names_dir "caida" e);
  (match Topology.Iplane.parse_file dir with
  | _ -> Alcotest.fail "iplane: a directory parsed"
  | exception e -> names_dir "iplane" e);
  (match Framework.Scenario.parse_file dir with
  | Ok _ -> Alcotest.fail "scenario: a directory parsed"
  | Error msg -> names_dir "scenario" (Sys_error msg));
  Sys.remove file;
  Sys.rmdir dir

let test_iplane_generate () =
  let rng = Engine.Rng.create 9 in
  let spec = Topology.Iplane.generate ~ases:8 ~pops_per_as:3 rng in
  Alcotest.(check bool) "valid" true (Topology.Spec.is_valid spec);
  Alcotest.(check bool) "has links" true (Topology.Spec.link_count spec > 0);
  Alcotest.(check bool) "at most 8 ASes" true (Topology.Spec.node_count spec <= 8)

let prop_er_connected =
  QCheck.Test.make ~name:"erdos-renyi always connected" ~count:50
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Engine.Rng.create seed in
      let s = Topology.Random_models.erdos_renyi rng ~n ~p:0.1 in
      Topology.Spec.is_connected s && Topology.Spec.is_valid s)

let prop_ba_connected_valid =
  QCheck.Test.make ~name:"barabasi-albert connected and valid" ~count:50
    QCheck.(pair small_int (int_range 4 25))
    (fun (seed, n) ->
      let rng = Engine.Rng.create seed in
      let s = Topology.Random_models.barabasi_albert rng ~n ~m:2 in
      Topology.Spec.is_connected s && Topology.Spec.is_valid s)

let prop_glp_connected_valid =
  QCheck.Test.make ~name:"glp connected and valid" ~count:50
    QCheck.(pair small_int (int_range 5 30))
    (fun (seed, n) ->
      let rng = Engine.Rng.create seed in
      let s = Topology.Random_models.glp rng ~n ~m:2 in
      Topology.Spec.is_connected s && Topology.Spec.is_valid s)

let test_glp_heavier_tail_than_ba () =
  (* GLP's densification should produce a higher max degree than BA at
     equal size, at least typically; check over a few seeds *)
  let max_degree s =
    List.fold_left
      (fun acc a -> max acc (List.length (Topology.Spec.neighbors s a)))
      0 (Topology.Spec.asns s)
  in
  let wins = ref 0 in
  List.iter
    (fun seed ->
      let glp = Topology.Random_models.glp (Engine.Rng.create seed) ~n:60 ~m:2 in
      let ba = Topology.Random_models.barabasi_albert (Engine.Rng.create seed) ~n:60 ~m:2 in
      if max_degree glp >= max_degree ba then incr wins)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "glp hub at least as large usually" true (!wins >= 3)

let prop_waxman_connected =
  QCheck.Test.make ~name:"waxman connected and valid" ~count:50
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Engine.Rng.create seed in
      let s = Topology.Random_models.waxman rng ~n in
      Topology.Spec.is_connected s && Topology.Spec.is_valid s)

let prop_caida_generate_valid =
  QCheck.Test.make ~name:"caida generator valid and connected" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let rng = Engine.Rng.create seed in
      let s = Topology.Caida.generate ~tier1:3 ~tier2:6 ~stubs:10 rng in
      Topology.Spec.is_valid s && Topology.Spec.is_connected s)

(* --- The topology index ----------------------------------------------- *)

(* A random valid spec from [seed]: 2-14 ASes in shuffled order, each
   pair linked with probability 0.4 in a random orientation and relation,
   the links shuffled, and about a third of the ASes SDN members. *)
let random_spec seed =
  let rng = Engine.Rng.create seed in
  let n = Engine.Rng.int_range rng 2 14 in
  let asns = Engine.Rng.shuffle rng (List.init n (fun i -> Net.Asn.of_int (64_001 + (7 * i)))) in
  let at = Array.of_list asns in
  let rels = Topology.Spec.[| C2p; P2p; S2s; Open |] in
  let links = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Engine.Rng.chance rng 0.4 then begin
        let a, b = if Engine.Rng.bool rng then (at.(i), at.(j)) else (at.(j), at.(i)) in
        links := Topology.Spec.link ~rel:rels.(Engine.Rng.int rng 4) a b :: !links
      end
    done
  done;
  let spec =
    Topology.Spec.make ~title:"random" ~nodes:(List.map Topology.Spec.node asns)
      ~links:(Engine.Rng.shuffle rng !links)
  in
  Topology.Spec.with_sdn spec (List.filter (fun _ -> Engine.Rng.chance rng 0.3) asns)

(* The per-AS filter over the whole link list that the index replaced. *)
let filter_links spec asn =
  List.filter
    (fun (l : Topology.Spec.link_spec) -> Net.Asn.equal l.a asn || Net.Asn.equal l.b asn)
    (Topology.Spec.links spec)

let filter_neighbors spec asn =
  List.map
    (fun (l : Topology.Spec.link_spec) -> if Net.Asn.equal l.a asn then l.b else l.a)
    (filter_links spec asn)

let prop_index_matches_filter =
  QCheck.Test.make ~name:"index = link-list filter" ~count:300 QCheck.small_nat (fun seed ->
      let spec = random_spec seed in
      let asns = Topology.Spec.asns spec in
      let stranger = Net.Asn.of_int 1 in
      List.for_all
        (fun me ->
          Topology.Spec.links_of spec me = filter_links spec me
          && Topology.Spec.neighbors spec me = filter_neighbors spec me
          && Topology.Spec.degree spec me = List.length (filter_links spec me)
          && List.for_all
               (fun neighbor ->
                 let want =
                   List.find_opt
                     (fun (l : Topology.Spec.link_spec) ->
                       Net.Asn.equal (if Net.Asn.equal l.a me then l.b else l.a) neighbor)
                     (filter_links spec me)
                   |> Option.map (Topology.Spec.neighbor_role_of_link ~me)
                 in
                 Topology.Spec.neighbor_role spec ~me ~neighbor = want)
               (stranger :: asns))
        (stranger :: asns)
      && List.for_all (Topology.Spec.mem spec) asns
      && (not (Topology.Spec.mem spec stranger))
      && List.mapi (fun i a -> Topology.Spec.ordinal spec a = Some i) asns
         |> List.for_all Fun.id
      && List.for_all
           (fun a ->
             Option.map (fun n -> n.Topology.Spec.asn) (Topology.Spec.find_node spec a) = Some a)
           asns)

let suite =
  [
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "star relationships" `Quick test_star;
    Alcotest.test_case "ring/line" `Quick test_ring_line;
    Alcotest.test_case "with_sdn" `Quick test_with_sdn;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "caida parse" `Quick test_caida_parse;
    Alcotest.test_case "caida parse errors" `Quick test_caida_parse_errors;
    Alcotest.test_case "caida malformed input" `Quick test_caida_parse_malformed;
    Alcotest.test_case "caida generate/render roundtrip" `Quick test_caida_roundtrip;
    Alcotest.test_case "iplane parse" `Quick test_iplane_parse;
    Alcotest.test_case "iplane generate" `Quick test_iplane_generate;
    Alcotest.test_case "file readers refuse a directory by name" `Quick test_file_readers;
    QCheck_alcotest.to_alcotest prop_er_connected;
    QCheck_alcotest.to_alcotest prop_ba_connected_valid;
    QCheck_alcotest.to_alcotest prop_glp_connected_valid;
    Alcotest.test_case "glp degree tail" `Quick test_glp_heavier_tail_than_ba;
    QCheck_alcotest.to_alcotest prop_waxman_connected;
    QCheck_alcotest.to_alcotest prop_caida_generate_valid;
    QCheck_alcotest.to_alcotest prop_index_matches_filter;
  ]
