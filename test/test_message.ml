(* Bgp.Message: construction helpers and rendering. *)

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let test_update_constructor () =
  match Bgp.Message.update ~withdrawn:[ p "9.0.0.0/8" ] () with
  | Bgp.Message.Update u ->
    Alcotest.(check int) "withdrawn only" 1 (List.length u.Bgp.Message.withdrawn);
    Alcotest.(check int) "no announcements" 0 (List.length u.Bgp.Message.announced)
  | _ -> Alcotest.fail "constructor must build an Update"

let test_rendering () =
  let render m = Fmt.str "%a" Bgp.Message.pp m in
  Alcotest.(check bool) "open mentions asn" true
    (let s = render (Bgp.Message.Open { asn = Net.Asn.of_int 65001; router_id = nh; hold_time = 180 }) in
     Astring_like.contains s "AS65001");
  Alcotest.(check string) "keepalive" "KEEPALIVE" (render Bgp.Message.Keepalive);
  Alcotest.(check bool) "notification carries reason" true
    (Astring_like.contains (render (Bgp.Message.Notification "bye")) "bye");
  Alcotest.(check bool) "update lists prefixes" true
    (Astring_like.contains
       (render (Bgp.Message.update ~withdrawn:[ p "9.9.0.0/16" ] ()))
       "9.9.0.0/16")

let suite =
  [
    Alcotest.test_case "update constructor" `Quick test_update_constructor;
    Alcotest.test_case "rendering" `Quick test_rendering;
  ]
