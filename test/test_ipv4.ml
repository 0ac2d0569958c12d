(* Net.Ipv4: addresses, prefixes, containment, allocation. *)

open Net

let addr = Alcotest.testable Ipv4.pp_addr Ipv4.equal_addr

let prefix = Alcotest.testable Ipv4.pp_prefix Ipv4.equal_prefix

let a s = Option.get (Ipv4.addr_of_string s)

let p s = Option.get (Ipv4.prefix_of_string s)

let test_addr_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.addr_to_string (a s)))
    [ "0.0.0.0"; "10.0.0.1"; "192.168.255.1"; "255.255.255.255"; "128.0.0.1" ]

let test_addr_parse_errors () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Ipv4.addr_of_string s = None))
    [ ""; "10.0.0"; "10.0.0.256"; "10.0.0.-1"; "a.b.c.d"; "10.0.0.1.2" ]

let test_prefix_normalization () =
  Alcotest.check prefix "host bits cleared" (p "10.1.0.0/16")
    (Ipv4.prefix (a "10.1.2.3") 16);
  Alcotest.(check string) "/0 renders" "0.0.0.0/0" (Ipv4.prefix_to_string (p "1.2.3.4/0"))

let test_prefix_parse () =
  Alcotest.check prefix "bare addr is /32" (Ipv4.prefix (a "1.2.3.4") 32) (p "1.2.3.4");
  Alcotest.(check bool) "bad length" true (Ipv4.prefix_of_string "10.0.0.0/33" = None)

let test_mem () =
  Alcotest.(check bool) "inside" true (Ipv4.mem (a "10.1.2.3") (p "10.1.0.0/16"));
  Alcotest.(check bool) "outside" false (Ipv4.mem (a "10.2.0.1") (p "10.1.0.0/16"));
  Alcotest.(check bool) "/0 contains all" true (Ipv4.mem (a "200.1.1.1") (p "0.0.0.0/0"));
  Alcotest.(check bool) "/32 self" true (Ipv4.mem (a "9.9.9.9") (p "9.9.9.9/32"))

let test_subsumes () =
  Alcotest.(check bool) "outer/inner" true
    (Ipv4.subsumes ~outer:(p "10.0.0.0/8") ~inner:(p "10.5.0.0/16"));
  Alcotest.(check bool) "not subsumed" false
    (Ipv4.subsumes ~outer:(p "10.5.0.0/16") ~inner:(p "10.0.0.0/8"));
  Alcotest.(check bool) "equal subsumes" true
    (Ipv4.subsumes ~outer:(p "10.0.0.0/8") ~inner:(p "10.0.0.0/8"))

let test_hosts () =
  Alcotest.check addr "nth host" (a "10.0.0.10") (Ipv4.nth_host (p "10.0.0.0/24") 10);
  let out_of_range name pre n =
    Alcotest.check_raises name (Invalid_argument "Ipv4.nth_host") (fun () ->
        ignore (Ipv4.nth_host (p pre) n))
  in
  out_of_range "past a /24" "10.0.0.0/24" 256;
  out_of_range "negative" "10.0.0.0/24" (-1);
  Alcotest.check addr "/0 first" (a "0.0.0.0") (Ipv4.nth_host (p "0.0.0.0/0") 0);
  Alcotest.check addr "/0 last" (a "255.255.255.255")
    (Ipv4.nth_host (p "0.0.0.0/0") ((1 lsl 32) - 1));
  out_of_range "past a /0" "0.0.0.0/0" (1 lsl 32);
  Alcotest.check addr "/1 last" (a "255.255.255.255")
    (Ipv4.nth_host (p "128.0.0.0/1") ((1 lsl 31) - 1));
  out_of_range "past a /1" "128.0.0.0/1" (1 lsl 31);
  Alcotest.check addr "/32 itself" (a "9.9.9.9") (Ipv4.nth_host (p "9.9.9.9/32") 0);
  out_of_range "past a /32" "9.9.9.9/32" 1

(* The Format-free string printers, and the packed-prefix and int ASN
   renderers causal markers store, are byte-identical to the [pp]
   printers: edge values, then a seeded random sample. *)
let test_printers_match_pp () =
  let check_addr x =
    let want = Fmt.str "%a" Ipv4.pp_addr x in
    Alcotest.(check string) ("addr " ^ want) want (Ipv4.addr_to_string x)
  in
  let check_prefix x =
    let want = Fmt.str "%a" Ipv4.pp_prefix x in
    Alcotest.(check string) ("prefix " ^ want) want (Ipv4.prefix_to_string x);
    Alcotest.(check string) ("packed " ^ want) want
      (Ipv4.packed_prefix_to_string (Ipv4.prefix_to_packed x))
  in
  let check_asn n =
    let x = Asn.of_int n in
    let want = Fmt.str "%a" Asn.pp x in
    Alcotest.(check string) ("asn " ^ want) want (Asn.to_string x);
    Alcotest.(check string) ("int asn " ^ want) want (Asn.int_to_string (Asn.to_int x))
  in
  List.iter check_addr [ a "0.0.0.0"; a "255.255.255.255"; a "128.0.0.0"; a "0.0.0.1" ];
  List.iter check_prefix
    [ p "0.0.0.0/0"; p "255.255.255.255/32"; p "128.0.0.0/1"; p "10.0.0.0/8"; p "203.0.113.0/24" ];
  List.iter check_asn [ 1; 65001; 0xFFFF; 0x10000; 0xFFFF_FFFF ];
  let rng = Random.State.make [| 2014 |] in
  for _ = 1 to 1000 do
    let x = Ipv4.addr_of_bits (Random.State.bits rng lor (Random.State.bits rng lsl 30)) in
    check_addr x;
    check_prefix (Ipv4.prefix x (Random.State.int rng 33));
    check_asn (1 + Random.State.full_int rng 0xFFFF_FFFF)
  done

let gen_addr =
  QCheck.Gen.(map Int32.of_int (int_range Int32.(to_int min_int) Int32.(to_int max_int)))

let arb_addr = QCheck.make ~print:(fun i -> Ipv4.addr_to_string (Ipv4.addr_of_int32 i)) gen_addr

let prop_addr_string_roundtrip =
  QCheck.Test.make ~name:"addr to/of string roundtrip" ~count:500 arb_addr (fun i ->
      let addr = Ipv4.addr_of_int32 i in
      match Ipv4.addr_of_string (Ipv4.addr_to_string addr) with
      | Some back -> Ipv4.equal_addr addr back
      | None -> false)

let prop_prefix_contains_network =
  QCheck.Test.make ~name:"prefix contains its network address" ~count:500
    QCheck.(pair arb_addr (int_range 0 32))
    (fun (i, len) ->
      let pre = Ipv4.prefix (Ipv4.addr_of_int32 i) len in
      Ipv4.mem (Ipv4.prefix_network pre) pre)

let suite =
  [
    Alcotest.test_case "addr roundtrip" `Quick test_addr_roundtrip;
    Alcotest.test_case "addr parse errors" `Quick test_addr_parse_errors;
    Alcotest.test_case "prefix normalization" `Quick test_prefix_normalization;
    Alcotest.test_case "prefix parse" `Quick test_prefix_parse;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "subsumes" `Quick test_subsumes;
    Alcotest.test_case "hosts" `Quick test_hosts;
    Alcotest.test_case "string printers match pp" `Quick test_printers_match_pp;
    QCheck_alcotest.to_alcotest prop_addr_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_prefix_contains_network;
  ]
