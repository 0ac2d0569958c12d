(* Bgp.Attrs. *)

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let asn = Net.Asn.of_int

let test_prepend () =
  let a = Bgp.Attrs.make ~next_hop:nh () in
  let a = Bgp.Attrs.prepend a (asn 65002) in
  let a = Bgp.Attrs.prepend a (asn 65001) in
  Alcotest.(check (list int)) "leftmost is latest" [ 65001; 65002 ]
    (List.map Net.Asn.to_int (Bgp.Attrs.as_path a));
  Alcotest.(check int) "length" 2 (Bgp.Attrs.path_length a);
  Alcotest.(check bool) "contains" true (Bgp.Attrs.path_contains a (asn 65002));
  Alcotest.(check bool) "not contains" false (Bgp.Attrs.path_contains a (asn 65009))

let test_wire_equal_ignores_local_pref () =
  let a = Bgp.Attrs.make ~as_path:[ asn 65001 ] ~local_pref:100 ~next_hop:nh () in
  let b = Bgp.Attrs.with_local_pref a 200 in
  Alcotest.(check bool) "local pref excluded" true (Bgp.Attrs.wire_equal a b);
  let c = Bgp.Attrs.make ~as_path:[ asn 65001 ] ~med:5 ~next_hop:nh () in
  Alcotest.(check bool) "med included" false (Bgp.Attrs.wire_equal a c);
  let d = Bgp.Attrs.prepend a (asn 65009) in
  Alcotest.(check bool) "path included" false (Bgp.Attrs.wire_equal a d)

let test_origin_rank () =
  Alcotest.(check bool) "igp < egp" true
    (Bgp.Attrs.origin_rank Bgp.Attrs.Igp < Bgp.Attrs.origin_rank Bgp.Attrs.Egp);
  Alcotest.(check bool) "egp < incomplete" true
    (Bgp.Attrs.origin_rank Bgp.Attrs.Egp < Bgp.Attrs.origin_rank Bgp.Attrs.Incomplete)

(* --- Interning properties -------------------------------------------- *)

let test_intern_physical_equality () =
  let a =
    Bgp.Attrs.make ~as_path:[ asn 65001; asn 65002 ] ~local_pref:120 ~med:7 ~next_hop:nh ()
  in
  let b =
    Bgp.Attrs.make ~as_path:[ asn 65001; asn 65002 ] ~local_pref:120 ~med:7 ~next_hop:nh ()
  in
  Alcotest.(check bool) "same content is the same value" true (a == b);
  (* different construction route, same content *)
  let c =
    Bgp.Attrs.prepend
      (Bgp.Attrs.with_local_pref (Bgp.Attrs.make ~as_path:[ asn 65002 ] ~med:7 ~next_hop:nh ()) 120)
      (asn 65001)
  in
  Alcotest.(check bool) "construction route irrelevant" true (a == c);
  Alcotest.(check int) "wire ids agree" (Bgp.Attrs.wire_id a) (Bgp.Attrs.wire_id c)

(* QCheck: any two logically-equal random attrs are physically equal, and
   the intern tables grow by at most the number of distinct inputs. *)
let attrs_spec_gen =
  QCheck.Gen.(
    let path = list_size (int_range 0 4) (int_range 65001 65006) in
    let lp = int_range 50 150 in
    let med = int_range 0 3 in
    triple path lp med)

let build (path, lp, med) =
  Bgp.Attrs.make ~as_path:(List.map asn path) ~local_pref:lp ~med ~next_hop:nh ()

let prop_same_spec_physically_equal =
  QCheck.Test.make ~name:"equal specs intern to one value" ~count:500
    (QCheck.make
       ~print:(fun (p, lp, med) ->
         Fmt.str "path=%a lp=%d med=%d" Fmt.(Dump.list int) p lp med)
       attrs_spec_gen)
    (fun spec ->
      let a = build spec and b = build spec in
      a == b && Bgp.Attrs.equal a b
      && Bgp.Attrs.wire_id a = Bgp.Attrs.wire_id b)

let prop_table_growth_bounded =
  QCheck.Test.make ~name:"intern table growth bounded by distinct specs" ~count:20
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 1 60) attrs_spec_gen))
    (fun specs ->
      let before = (Bgp.Attrs.intern_stats ()).Bgp.Attrs.distinct_full in
      List.iter (fun s -> ignore (build s)) specs;
      (* interning many copies of the same specs again must add nothing *)
      List.iter (fun s -> ignore (build s)) specs;
      let after = (Bgp.Attrs.intern_stats ()).Bgp.Attrs.distinct_full in
      let distinct = List.length (List.sort_uniq compare specs) in
      after - before <= distinct)

(* QCheck: every local-pref variant of one wire content carries that
   content's wire id, whichever variant was built first and by whichever
   constructor; distinct wire contents never share a wire id. *)
let variant_gen =
  QCheck.Gen.(
    let wire =
      quad
        (list_size (int_range 0 3) (int_range 65001 65004))
        (int_range 0 1) (int_range 0 1)
        (oneofl Bgp.Attrs.[ Igp; Incomplete ])
    in
    pair wire (pair (oneofl [ 90; 100; 110; 120 ]) (int_range 0 2)))

let build_variant ((path, med, hop, origin), (local_pref, how)) =
  let next_hop = if hop = 0 then nh else Net.Ipv4.addr_of_octets 10 0 0 2 in
  let make ~local_pref as_path =
    Bgp.Attrs.make ~as_path:(List.map asn as_path) ~local_pref ~med ~origin ~next_hop ()
  in
  match (how, path) with
  | 1, _ -> Bgp.Attrs.with_local_pref (make ~local_pref:77 path) local_pref
  | 2, first :: rest -> Bgp.Attrs.prepend (make ~local_pref rest) (asn first)
  | _ -> make ~local_pref path

let prop_wire_id_per_wire_content =
  QCheck.Test.make ~name:"local-pref variants share one wire id" ~count:200
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 1 40) variant_gen))
    (fun variants ->
      let built = List.map (fun v -> (v, build_variant v)) variants in
      List.for_all
        (fun ((wire, (lp, _)), a) ->
          List.for_all
            (fun ((wire', (lp', _)), b) ->
              (wire = wire') = Bgp.Attrs.wire_equal a b
              && (wire = wire' && lp = lp') = (a == b))
            built)
        built)

(* QCheck: values the caller still holds survive a collection as the
   canonical values of their contents.  Half of a random batch is held,
   the GC reclaims the rest, and the whole batch is built again: every
   held value comes back physically, and over the rebuilt batch [==] and
   [wire_equal] still hold exactly on equal full and wire contents. *)
let prop_canonical_across_collections =
  QCheck.Test.make ~name:"canonical across collections" ~count:50
    (QCheck.make
       ~print:(fun l -> string_of_int (List.length l))
       QCheck.Gen.(list_size (int_range 2 40) variant_gen))
    (fun variants ->
      let held = List.filteri (fun i _ -> i mod 2 = 0) (List.map build_variant variants) in
      Gc.full_major ();
      let rebuilt = List.map (fun v -> (v, build_variant v)) variants in
      List.for_all2 ( == ) held (List.filteri (fun i _ -> i mod 2 = 0) (List.map snd rebuilt))
      && List.for_all
           (fun ((wire, (lp, _)), a) ->
             List.for_all
               (fun ((wire', (lp', _)), b) ->
                 (wire = wire') = Bgp.Attrs.wire_equal a b
                 && (wire = wire' && lp = lp') = (a == b))
               rebuilt)
           rebuilt)

(* [n] sets of distinct wire content, each under two local-prefs, that no
   other test builds. *)
let intern_batch n =
  List.concat_map
    (fun i ->
      let a = Bgp.Attrs.make ~as_path:[ asn 64999 ] ~med:(1_000_000 + i) ~next_hop:nh () in
      [ a; Bgp.Attrs.with_local_pref a 77 ])
    (List.init n Fun.id)

(* The intern set keeps nothing alive: sets held only by a local list are
   reclaimed once it is dropped, and the live counts come back to within
   1% of their reading before. *)
let test_intern_reclaims () =
  let stats () = Bgp.Attrs.intern_stats () in
  Gc.full_major ();
  let s0 = stats () in
  let held = Sys.opaque_identity (intern_batch 10_000) in
  let s1 = stats () in
  Alcotest.(check bool) "full >= wire" true
    (s1.Bgp.Attrs.distinct_full >= s1.Bgp.Attrs.distinct_wire);
  Alcotest.(check bool) "20,000 sets held" true
    (s1.Bgp.Attrs.distinct_full >= s0.Bgp.Attrs.distinct_full + 20_000
    && s1.Bgp.Attrs.distinct_wire >= s0.Bgp.Attrs.distinct_wire + 10_000);
  ignore (Sys.opaque_identity held);
  Gc.full_major ();
  let s2 = stats () in
  let near before after = 100 * abs (after - before) <= before in
  Alcotest.(check bool)
    (Fmt.str "full sets %d -> %d -> %d" s0.Bgp.Attrs.distinct_full s1.Bgp.Attrs.distinct_full
       s2.Bgp.Attrs.distinct_full)
    true
    (near s0.Bgp.Attrs.distinct_full s2.Bgp.Attrs.distinct_full);
  Alcotest.(check bool)
    (Fmt.str "wire contents %d -> %d -> %d" s0.Bgp.Attrs.distinct_wire
       s1.Bgp.Attrs.distinct_wire s2.Bgp.Attrs.distinct_wire)
    true
    (near s0.Bgp.Attrs.distinct_wire s2.Bgp.Attrs.distinct_wire)

(* [exported] is one intern of what the per-peer export chain built in
   three: the same canonical value, over seeded attrs that exercise every
   field the chain carries through (MED, origin, a local-pref other than
   the default). *)
let test_exported_matches_chain () =
  let rng = Engine.Rng.create 19 in
  let pick l = Engine.Rng.pick rng l in
  let hops = [ nh; Net.Ipv4.addr_of_octets 10 0 0 2; Net.Ipv4.addr_of_octets 192 0 2 1 ] in
  for i = 1 to 300 do
    let a =
      Bgp.Attrs.make
        ~as_path:(List.init (Engine.Rng.int rng 4) (fun _ -> asn (65001 + Engine.Rng.int rng 6)))
        ~local_pref:(pick [ 90; 100; 110; 130 ])
        ~med:(Engine.Rng.int rng 3)
        ~origin:(pick Bgp.Attrs.[ Igp; Egp; Incomplete ])
        ~next_hop:(pick hops) ()
    in
    let me = asn (65001 + Engine.Rng.int rng 8) in
    let next_hop = pick hops in
    let chain =
      Bgp.Attrs.with_local_pref
        (Bgp.Attrs.with_next_hop (Bgp.Attrs.prepend a me) next_hop)
        Bgp.Attrs.default_local_pref
    in
    Alcotest.(check bool)
      (Fmt.str "case %d: exported == chain (%a)" i Bgp.Attrs.pp a)
      true
      (Bgp.Attrs.exported a ~asn:me ~next_hop == chain);
    (* the memoized restamp round-trips to the same canonical value *)
    Alcotest.(check bool)
      (Fmt.str "case %d: restamp round trip" i)
      true
      (Bgp.Attrs.with_local_pref (Bgp.Attrs.with_local_pref a 77) a.Bgp.Attrs.local_pref == a)
  done

let suite =
  [
    Alcotest.test_case "prepend" `Quick test_prepend;
    Alcotest.test_case "wire equality" `Quick test_wire_equal_ignores_local_pref;
    Alcotest.test_case "origin rank" `Quick test_origin_rank;
    Alcotest.test_case "intern physical equality" `Quick test_intern_physical_equality;
    QCheck_alcotest.to_alcotest prop_same_spec_physically_equal;
    QCheck_alcotest.to_alcotest prop_table_growth_bounded;
    QCheck_alcotest.to_alcotest prop_wire_id_per_wire_content;
    QCheck_alcotest.to_alcotest prop_canonical_across_collections;
    Alcotest.test_case "reclaims dropped sets" `Quick test_intern_reclaims;
    Alcotest.test_case "exported matches the prepend chain" `Quick test_exported_matches_chain;
  ]
