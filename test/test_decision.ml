(* Bgp.Decision: each tie-break step and total-order properties. *)

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let prefix = Option.get (Net.Ipv4.prefix_of_string "100.64.0.0/24")

(* The path is derived from the source: empty for [`Local], [n :: tail]
   for [`Ebgp n] (a route's neighbor is its path's head). *)
let route ?(local_pref = 100) ?(tail = []) ?(med = 0) ?(origin = Bgp.Attrs.Igp)
    ?(source = `Ebgp 65001) () =
  let path, source =
    match source with
    | `Local -> ([], Bgp.Route.Local)
    | `Ebgp n -> (n :: tail, Bgp.Route.Ebgp (Net.Asn.of_int n))
  in
  let attrs =
    Bgp.Attrs.make ~as_path:(List.map Net.Asn.of_int path) ~local_pref ~med ~origin ~next_hop:nh
      ()
  in
  Bgp.Route.make ~attrs ~source

let prefer a b msg =
  Alcotest.(check bool) msg true (Bgp.Decision.better a b);
  Alcotest.(check bool) (msg ^ " (antisym)") false (Bgp.Decision.better b a)

let test_local_pref_wins () =
  prefer
    (route ~local_pref:130 ~tail:[ 65002; 65003 ] ())
    (route ~local_pref:100 ~source:(`Ebgp 65004) ())
    "higher local pref beats shorter path"

let test_local_beats_learned () =
  prefer (route ~source:`Local ()) (route ())
    "locally originated beats learned"

let test_shorter_path () =
  prefer (route ~source:(`Ebgp 65002) ())
    (route ~tail:[ 65003 ] ~source:(`Ebgp 65001) ())
    "shorter AS path wins"

let test_origin () =
  prefer
    (route ~origin:Bgp.Attrs.Igp ())
    (route ~origin:Bgp.Attrs.Incomplete ~source:(`Ebgp 65000) ())
    "IGP origin beats incomplete"

let test_med () =
  prefer (route ~med:5 ()) (route ~med:10 ~source:(`Ebgp 65000) ()) "lower MED wins"

let test_neighbor_tiebreak () =
  prefer
    (route ~source:(`Ebgp 65001) ())
    (route ~source:(`Ebgp 65002) ())
    "lower neighbor ASN breaks ties"

let test_select () =
  let worst = route ~local_pref:90 () in
  let best = route ~local_pref:130 ~source:(`Ebgp 65005) () in
  let mid = route ~local_pref:110 ~source:(`Ebgp 65002) () in
  (match Bgp.Decision.select [ worst; best; mid ] with
  | Some r -> Alcotest.(check int) "selects best" 130 (Bgp.Route.attrs r).Bgp.Attrs.local_pref
  | None -> Alcotest.fail "must select");
  Alcotest.(check bool) "empty" true (Bgp.Decision.select [] = None)

let arb_route =
  let gen =
    QCheck.Gen.(
      let* lp = int_range 90 130 in
      let* len = int_range 0 4 in
      let* tail = list_repeat (max 0 (len - 1)) (int_range 65001 65008) in
      let* med = int_range 0 3 in
      let* src = int_range 65001 65008 in
      let* origin = oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ] in
      (* path length [len]: 0 is a local route, 1..4 one learned from [src] *)
      let source = if len = 0 then `Local else `Ebgp src in
      return (route ~local_pref:lp ~tail ~med ~origin ~source ()))
  in
  QCheck.make ~print:(fun r -> Fmt.str "%a" (Bgp.Route.pp ~prefix) r) gen

let prop_total_order_antisymmetric =
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:300
    QCheck.(pair arb_route arb_route)
    (fun (a, b) -> Bgp.Decision.compare a b = -Bgp.Decision.compare b a)

let prop_total_order_transitive =
  QCheck.Test.make ~name:"compare is transitive" ~count:300
    QCheck.(triple arb_route arb_route arb_route)
    (fun (a, b, c) ->
      let ab = Bgp.Decision.compare a b and bc = Bgp.Decision.compare b c in
      if ab <= 0 && bc <= 0 then Bgp.Decision.compare a c <= 0 else true)

let prop_select_is_minimum =
  QCheck.Test.make ~name:"select returns the compare-minimum" ~count:300
    QCheck.(list_of_size Gen.(1 -- 10) arb_route)
    (fun routes ->
      match Bgp.Decision.select routes with
      | None -> false
      | Some best -> List.for_all (fun r -> Bgp.Decision.compare best r <= 0) routes)

let suite =
  [
    Alcotest.test_case "local pref dominates" `Quick test_local_pref_wins;
    Alcotest.test_case "local origination" `Quick test_local_beats_learned;
    Alcotest.test_case "shorter path" `Quick test_shorter_path;
    Alcotest.test_case "origin rank" `Quick test_origin;
    Alcotest.test_case "MED" `Quick test_med;
    Alcotest.test_case "neighbor tiebreak" `Quick test_neighbor_tiebreak;
    Alcotest.test_case "select" `Quick test_select;
    QCheck_alcotest.to_alcotest prop_total_order_antisymmetric;
    QCheck_alcotest.to_alcotest prop_total_order_transitive;
    QCheck_alcotest.to_alcotest prop_select_is_minimum;
  ]
