(* Framework.Monitor: the forwarding-state walker. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let build ?(spec = Topology.Artificial.clique 4) () =
  let net = Framework.Network.create ~config:cfg ~seed:9 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  net

let originate net a =
  let plan = Framework.Network.plan net in
  Framework.Network.originate net a (plan.Framework.Addressing.origin_prefix a);
  ignore (Framework.Network.settle net)

let test_walk_delivered_path () =
  let net = build ~spec:(Topology.Artificial.line 4) () in
  originate net (asn 3);
  let plan = Framework.Network.plan net in
  match
    Framework.Monitor.walk net ~src:(asn 0)
      ~dst_addr:(plan.Framework.Addressing.host_addr (asn 3))
  with
  | Framework.Monitor.Delivered path ->
    Alcotest.(check (list int)) "hop-by-hop path"
      [ 65001; 65002; 65003; 65004 ]
      (List.map Net.Asn.to_int path)
  | o -> Alcotest.failf "expected delivery, got %a" Framework.Monitor.pp_outcome o

let test_walk_blackhole () =
  let net = build () in
  let plan = Framework.Network.plan net in
  (* nothing announced: no route anywhere *)
  match
    Framework.Monitor.walk net ~src:(asn 0)
      ~dst_addr:(plan.Framework.Addressing.host_addr (asn 2))
  with
  | Framework.Monitor.Blackhole [ hop ] ->
    Alcotest.(check int) "stops at source" 65001 (Net.Asn.to_int hop)
  | o -> Alcotest.failf "expected blackhole, got %a" Framework.Monitor.pp_outcome o

let test_connectivity_matrix () =
  let net = build () in
  originate net (asn 0);
  originate net (asn 1);
  let matrix =
    Framework.Monitor.connectivity_matrix net ~origins:[ asn 0; asn 1 ]
  in
  (* 4 sources x 2 destinations, minus the 2 self-pairs *)
  Alcotest.(check int) "matrix size" 6 (List.length matrix);
  Alcotest.(check bool) "all reachable" true (List.for_all (fun (_, _, ok) -> ok) matrix)

let test_traceroute () =
  let net = build ~spec:(Topology.Artificial.line 4) () in
  originate net (asn 3);
  let outcome, hops = Framework.Monitor.traceroute net ~src:(asn 0) ~dst:(asn 3) in
  Alcotest.(check bool) "reached" true (Framework.Monitor.is_delivered outcome);
  Alcotest.(check int) "four hops" 4 (List.length hops);
  (* cumulative latency is monotone and positive past the first hop *)
  let cumulative = List.map (fun h -> Engine.Time.to_ms_f h.Framework.Monitor.cumulative) hops in
  (match cumulative with
  | first :: rest ->
    Alcotest.(check (float 1e-9)) "starts at zero" 0.0 first;
    ignore
      (List.fold_left
         (fun prev c ->
           Alcotest.(check bool) "monotone" true (c >= prev);
           c)
         first rest);
    Alcotest.(check bool) "nonzero end-to-end" true (List.nth cumulative 3 > 0.0)
  | [] -> Alcotest.fail "no hops")

let suite =
  [
    Alcotest.test_case "walk delivered path" `Quick test_walk_delivered_path;
    Alcotest.test_case "traceroute" `Quick test_traceroute;
    Alcotest.test_case "walk blackhole" `Quick test_walk_blackhole;
    Alcotest.test_case "connectivity matrix" `Quick test_connectivity_matrix;
  ]
