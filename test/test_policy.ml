(* Bgp.Policy: import processing and the valley-free export matrix. *)

open Bgp.Policy

let me = Net.Asn.of_int 65000

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let prefix = Option.get (Net.Ipv4.prefix_of_string "100.64.0.0/24")

let attrs ?(path = [ 65001 ]) ?(communities = Bgp.Community.Set.empty) () =
  Bgp.Attrs.make ~as_path:(List.map Net.Asn.of_int path) ~communities ~next_hop:nh ()

let test_import_loop_rejected () =
  let p = make Customer in
  Alcotest.(check bool) "own ASN in path rejected" false
    (accepts p ~me ~prefix (attrs ~path:[ 65001; 65000; 65002 ] ()));
  Alcotest.(check bool) "clean path accepted" true (accepts p ~me ~prefix (attrs ()))

let test_import_sets_local_pref () =
  List.iter
    (fun (rel, lp) ->
      Alcotest.(check int) (relationship_to_string rel) lp
        (import (make rel) (attrs ())).Bgp.Attrs.local_pref)
    [ (Customer, 130); (Sibling, 120); (Peer, 110); (Unrestricted, 100); (Provider, 90) ]

let test_import_prefix_filter () =
  let deny = make ~import_prefix_filter:(fun _ -> false) Customer in
  Alcotest.(check bool) "filtered" false (accepts deny ~me ~prefix (attrs ()))

let test_import_no_advertise () =
  let p = make Customer in
  let a = attrs ~communities:(Bgp.Community.Set.singleton Bgp.Community.no_advertise) () in
  Alcotest.(check bool) "NO_ADVERTISE rejected" false (accepts p ~me ~prefix a)

let test_import_community_stamp () =
  let tag = Bgp.Community.make 65000 1 in
  let p = make ~import_community:tag Peer in
  Alcotest.(check bool) "stamped" true (Bgp.Attrs.has_community (import p (attrs ())) tag)

(* The valley-free matrix: rows = where the route came from, columns =
   where it would go. *)
let test_export_matrix () =
  let cases =
    [
      (* provenance, to_rel, allowed *)
      (Originated, Customer, true);
      (Originated, Peer, true);
      (Originated, Provider, true);
      (From Customer, Customer, true);
      (From Customer, Peer, true);
      (From Customer, Provider, true);
      (From Peer, Customer, true);
      (From Peer, Peer, false);
      (From Peer, Provider, false);
      (From Provider, Customer, true);
      (From Provider, Peer, false);
      (From Provider, Provider, false);
      (From Sibling, Peer, true);
      (From Unrestricted, Provider, true);
      (From Peer, Unrestricted, true);
    ]
  in
  List.iter
    (fun (provenance, to_rel, allowed) ->
      let name =
        Fmt.str "%s -> %s"
          (match provenance with
          | Originated -> "originated"
          | From r -> relationship_to_string r)
          (relationship_to_string to_rel)
      in
      Alcotest.(check bool) name allowed (export_allowed ~to_rel ~provenance))
    cases

let test_export_no_export_community () =
  let p = make Customer in
  let a = attrs ~communities:(Bgp.Community.Set.singleton Bgp.Community.no_export) () in
  Alcotest.(check bool) "NO_EXPORT blocked" false (exports p ~provenance:Originated ~prefix a)

let test_export_prefix_filter () =
  let p = make ~export_prefix_filter:(fun _ -> false) Customer in
  Alcotest.(check bool) "filter blocks" false
    (exports p ~provenance:Originated ~prefix (attrs ()))

(* The predicate agrees with the valley-free matrix for every provenance
   and relationship, and [learned_from] hands out one shared value per
   relationship. *)
let test_export_passes_attrs_through () =
  let rels = [ Customer; Provider; Peer; Sibling; Unrestricted ] in
  List.iter
    (fun to_rel ->
      List.iter
        (fun provenance ->
          Alcotest.(check bool) "predicate = matrix"
            (export_allowed ~to_rel ~provenance)
            (exports (make to_rel) ~provenance ~prefix (attrs ~path:[ 65009 ] ())))
        (Originated :: List.map learned_from rels))
    rels;
  List.iter
    (fun rel ->
      Alcotest.(check bool) "one shared value" true (learned_from rel == learned_from rel);
      Alcotest.(check bool) "From rel" true (learned_from rel = From rel))
    rels

(* Gao-Rexford safety: a route never traverses customer->provider or
   peer after having gone "down" — equivalently an exported route's
   provenance/destination pair is always in the allowed matrix.  Here we
   check the matrix is downward-closed: if export to Provider is allowed,
   export to Customer must be too. *)
let prop_matrix_monotone =
  let arb_prov =
    QCheck.make
      ~print:(function Originated -> "orig" | From r -> relationship_to_string r)
      QCheck.Gen.(
        oneofl
          [ Originated; From Customer; From Provider; From Peer; From Sibling;
            From Unrestricted ])
  in
  QCheck.Test.make ~name:"export to provider implies export to customer" ~count:100 arb_prov
    (fun provenance ->
      (not (export_allowed ~to_rel:Provider ~provenance))
      || export_allowed ~to_rel:Customer ~provenance)

let suite =
  [
    Alcotest.test_case "import loop rejection" `Quick test_import_loop_rejected;
    Alcotest.test_case "import local pref" `Quick test_import_sets_local_pref;
    Alcotest.test_case "import prefix filter" `Quick test_import_prefix_filter;
    Alcotest.test_case "import NO_ADVERTISE" `Quick test_import_no_advertise;
    Alcotest.test_case "import community stamp" `Quick test_import_community_stamp;
    Alcotest.test_case "valley-free export matrix" `Quick test_export_matrix;
    Alcotest.test_case "export NO_EXPORT" `Quick test_export_no_export_community;
    Alcotest.test_case "export prefix filter" `Quick test_export_prefix_filter;
    Alcotest.test_case "export preserves attrs" `Quick test_export_passes_attrs_through;
    QCheck_alcotest.to_alcotest prop_matrix_monotone;
  ]
