(* Bgp.Mrai: pacing semantics — immediate first send, coalescing while
   throttled, withdrawal exemption, reset. *)

open Engine

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let attrs ?(med = 0) () = Bgp.Attrs.make ~med ~next_hop:nh ()

let config ?(on_withdrawals = true) () =
  Bgp.Config.no_jitter
    { Bgp.Config.default with Bgp.Config.mrai = Time.sec 10; mrai_on_withdrawals = on_withdrawals }

let setup ?on_withdrawals () =
  let sim = Sim.create () in
  let sent = ref [] in
  let mrai =
    Bgp.Mrai.create sim ~rng:(Rng.create 1) ~config:(config ?on_withdrawals ())
      ~send:(fun u -> sent := (Sim.now sim, u) :: !sent)
  in
  (sim, mrai, sent)

let sent_times sent = List.rev_map (fun (t, _) -> Time.to_us t) !sent

let test_first_immediate () =
  let sim, mrai, sent = setup () in
  Bgp.Mrai.enqueue_announce mrai (p "100.64.0.0/24") (attrs ());
  Alcotest.(check (list int)) "sent at once" [ 0 ] (sent_times sent);
  Alcotest.(check bool) "throttled after" true (Bgp.Mrai.is_throttled mrai);
  ignore (Sim.run sim);
  Alcotest.(check int) "no spurious flush" 1 (List.length !sent)

let test_coalescing () =
  let sim, mrai, sent = setup () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.enqueue_announce mrai pre (attrs ~med:1 ());
  (* while throttled: three successive changes for the same prefix *)
  Bgp.Mrai.enqueue_announce mrai pre (attrs ~med:2 ());
  Bgp.Mrai.enqueue_announce mrai pre (attrs ~med:3 ());
  Alcotest.(check int) "queued" 1 (Bgp.Mrai.pending_count mrai);
  ignore (Sim.run sim);
  match List.rev !sent with
  | [ (_, first); (at, second) ] ->
    Alcotest.(check int) "flush at expiry" 10_000_000 (Time.to_us at);
    Alcotest.(check int) "first had med=1"
      1
      (match first.Bgp.Message.announced with [ (_, a) ] -> a.Bgp.Attrs.med | _ -> -1);
    Alcotest.(check int) "flush carries only the latest" 3
      (match second.Bgp.Message.announced with [ (_, a) ] -> a.Bgp.Attrs.med | _ -> -1)
  | l -> Alcotest.failf "expected 2 updates, got %d" (List.length l)

let test_timer_rearms_only_when_flushing () =
  let sim, mrai, sent = setup () in
  Bgp.Mrai.enqueue_announce mrai (p "100.64.0.0/24") (attrs ());
  ignore (Sim.run sim);
  (* empty expiry: timer must be idle now *)
  Alcotest.(check bool) "idle after empty expiry" false (Bgp.Mrai.is_throttled mrai);
  Bgp.Mrai.enqueue_announce mrai (p "100.64.1.0/24") (attrs ());
  Alcotest.(check int) "immediate again after idle" 2 (List.length !sent)

let test_withdraw_exempt () =
  let _, mrai, sent = setup ~on_withdrawals:false () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.enqueue_announce mrai pre (attrs ());
  (* throttled; a withdrawal must bypass and cancel the pending announce *)
  Bgp.Mrai.enqueue_announce mrai pre (attrs ~med:9 ());
  Bgp.Mrai.enqueue_withdraw mrai pre;
  Alcotest.(check int) "withdraw sent immediately" 2 (List.length !sent);
  (match !sent with
  | (_, u) :: _ ->
    Alcotest.(check int) "it is a withdrawal" 1 (List.length u.Bgp.Message.withdrawn)
  | [] -> Alcotest.fail "nothing sent");
  Alcotest.(check int) "pending announce cancelled" 0 (Bgp.Mrai.pending_count mrai)

let test_withdraw_paced () =
  let sim, mrai, sent = setup ~on_withdrawals:true () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.enqueue_announce mrai pre (attrs ());
  Bgp.Mrai.enqueue_withdraw mrai pre;
  Alcotest.(check int) "withdraw queued, not sent" 1 (List.length !sent);
  ignore (Sim.run sim);
  match !sent with
  | (at, u) :: _ ->
    Alcotest.(check int) "flushed at expiry" 10_000_000 (Time.to_us at);
    Alcotest.(check int) "as a withdrawal" 1 (List.length u.Bgp.Message.withdrawn);
    Alcotest.(check int) "no announcement" 0 (List.length u.Bgp.Message.announced)
  | [] -> Alcotest.fail "nothing sent"

let test_reset () =
  let sim, mrai, sent = setup () in
  Bgp.Mrai.enqueue_announce mrai (p "100.64.0.0/24") (attrs ());
  Bgp.Mrai.enqueue_announce mrai (p "100.64.1.0/24") (attrs ());
  Bgp.Mrai.reset mrai;
  Alcotest.(check int) "pending cleared" 0 (Bgp.Mrai.pending_count mrai);
  Alcotest.(check bool) "timer stopped" false (Bgp.Mrai.is_throttled mrai);
  ignore (Sim.run sim);
  Alcotest.(check int) "nothing flushed after reset" 1 (List.length !sent)

let test_announce_overrides_pending_withdraw () =
  let sim, mrai, sent = setup ~on_withdrawals:true () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.enqueue_announce mrai pre (attrs ~med:1 ());
  Bgp.Mrai.enqueue_withdraw mrai pre;
  Bgp.Mrai.enqueue_announce mrai pre (attrs ~med:2 ());
  ignore (Sim.run sim);
  match List.rev !sent with
  | [ _; (_, flush) ] ->
    Alcotest.(check int) "announce superseded the withdraw" 1
      (List.length flush.Bgp.Message.announced);
    Alcotest.(check int) "no withdrawal left" 0 (List.length flush.Bgp.Message.withdrawn)
  | l -> Alcotest.failf "expected 2 updates, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "first send immediate" `Quick test_first_immediate;
    Alcotest.test_case "coalescing keeps latest" `Quick test_coalescing;
    Alcotest.test_case "timer re-arm policy" `Quick test_timer_rearms_only_when_flushing;
    Alcotest.test_case "withdrawal exemption (RFC)" `Quick test_withdraw_exempt;
    Alcotest.test_case "withdrawal pacing (Quagga)" `Quick test_withdraw_paced;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "announce overrides pending withdraw" `Quick
      test_announce_overrides_pending_withdraw;
  ]
