(* Bgp.Policy: import processing and the valley-free export matrix. *)

open Bgp.Policy

let me = Net.Asn.of_int 65000

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let attrs ?(path = [ 65001 ]) () =
  Bgp.Attrs.make ~as_path:(List.map Net.Asn.of_int path) ~next_hop:nh ()

(* The import filter routers and the controller apply before [import]:
   a route whose AS path holds the receiver's own ASN is rejected. *)
let test_import_loop_rejected () =
  Alcotest.(check bool) "own ASN in path rejected" true
    (Bgp.Attrs.path_contains (attrs ~path:[ 65001; 65000; 65002 ] ()) me);
  Alcotest.(check bool) "clean path accepted" false (Bgp.Attrs.path_contains (attrs ()) me)

let test_import_sets_local_pref () =
  List.iter
    (fun (rel, lp) ->
      Alcotest.(check int) (relationship_to_string rel) lp
        (import rel (attrs ())).Bgp.Attrs.local_pref)
    [ (Customer, 130); (Sibling, 120); (Peer, 110); (Unrestricted, 100); (Provider, 90) ]

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

(* The provenance an export decision reads: [learned_from] hands out one
   shared value per relationship, so exporting a learned route allocates
   no provenance. *)
let test_export_passes_attrs_through () =
  let rels = [ Customer; Provider; Peer; Sibling; Unrestricted ] in
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
    Alcotest.test_case "valley-free export matrix" `Quick test_export_matrix;
    Alcotest.test_case "export preserves attrs" `Quick test_export_passes_attrs_through;
    QCheck_alcotest.to_alcotest prop_matrix_monotone;
  ]
