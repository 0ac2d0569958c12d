(* Bgp.Mrai: pacing semantics — immediate first send, coalescing while
   throttled, withdrawal exemption, reset — and a differential against
   the persistent-map design it replaced (test/mrai_reference.ml). *)

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
  Bgp.Mrai.announce mrai (p "100.64.0.0/24") (attrs ());
  Alcotest.(check (list int)) "sent at once" [ 0 ] (sent_times sent);
  Alcotest.(check bool) "throttled after" true (Bgp.Mrai.is_throttled mrai);
  ignore (Sim.run sim);
  Alcotest.(check int) "no spurious flush" 1 (List.length !sent)

let test_coalescing () =
  let sim, mrai, sent = setup () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.announce mrai pre (attrs ~med:1 ());
  (* while throttled: three successive changes for the same prefix *)
  Bgp.Mrai.announce mrai pre (attrs ~med:2 ());
  Bgp.Mrai.announce mrai pre (attrs ~med:3 ());
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
  Bgp.Mrai.announce mrai (p "100.64.0.0/24") (attrs ());
  ignore (Sim.run sim);
  (* empty expiry: timer must be idle now *)
  Alcotest.(check bool) "idle after empty expiry" false (Bgp.Mrai.is_throttled mrai);
  Bgp.Mrai.announce mrai (p "100.64.1.0/24") (attrs ());
  Alcotest.(check int) "immediate again after idle" 2 (List.length !sent)

let test_withdraw_exempt () =
  let _, mrai, sent = setup ~on_withdrawals:false () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.announce mrai pre (attrs ());
  (* throttled; a withdrawal must bypass and cancel the pending announce *)
  Bgp.Mrai.announce mrai pre (attrs ~med:9 ());
  Bgp.Mrai.withdraw mrai pre;
  Alcotest.(check int) "withdraw sent immediately" 2 (List.length !sent);
  (match !sent with
  | (_, u) :: _ ->
    Alcotest.(check int) "it is a withdrawal" 1 (List.length u.Bgp.Message.withdrawn)
  | [] -> Alcotest.fail "nothing sent");
  Alcotest.(check int) "pending announce cancelled" 0 (Bgp.Mrai.pending_count mrai)

let test_withdraw_paced () =
  let sim, mrai, sent = setup ~on_withdrawals:true () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.announce mrai pre (attrs ());
  Bgp.Mrai.withdraw mrai pre;
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
  Bgp.Mrai.announce mrai (p "100.64.0.0/24") (attrs ());
  Bgp.Mrai.announce mrai (p "100.64.1.0/24") (attrs ());
  Bgp.Mrai.reset mrai;
  Alcotest.(check int) "pending cleared" 0 (Bgp.Mrai.pending_count mrai);
  Alcotest.(check bool) "timer stopped" false (Bgp.Mrai.is_throttled mrai);
  ignore (Sim.run sim);
  Alcotest.(check int) "nothing flushed after reset" 1 (List.length !sent)

let test_announce_overrides_pending_withdraw () =
  let sim, mrai, sent = setup ~on_withdrawals:true () in
  let pre = p "100.64.0.0/24" in
  Bgp.Mrai.announce mrai pre (attrs ~med:1 ());
  Bgp.Mrai.withdraw mrai pre;
  Bgp.Mrai.announce mrai pre (attrs ~med:2 ());
  ignore (Sim.run sim);
  match List.rev !sent with
  | [ _; (_, flush) ] ->
    Alcotest.(check int) "announce superseded the withdraw" 1
      (List.length flush.Bgp.Message.announced);
    Alcotest.(check int) "no withdrawal left" 0 (List.length flush.Bgp.Message.withdrawn)
  | l -> Alcotest.failf "expected 2 updates, got %d" (List.length l)

(* --- Differential: one outbound table vs the map-based reference ----- *)

type op =
  | Announce of int * int (* prefix, attrs *)
  | Withdraw of int
  | Flush (* the owner's end-of-event flush *)
  | Advance of int (* seconds of simulated time, timer expiries included *)
  | Reset

let pool =
  Array.map p
    [| "100.64.0.0/24"; "100.64.1.0/24"; "100.64.0.0/16"; "10.0.0.0/8"; "0.0.0.0/0";
       "200.1.2.0/24"; "255.255.255.255/32"; "128.0.0.0/1" |]

(* Two wire-distinct attrs and a local-pref variant of the first, which
   deduplication must treat as already advertised. *)
let attr_pool =
  [|
    attrs ~med:1 ();
    attrs ~med:2 ();
    Bgp.Attrs.make ~med:1 ~local_pref:200 ~next_hop:nh ();
  |]

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun i a -> Announce (i, a)) (int_bound 7) (int_bound 2));
        (4, map (fun i -> Withdraw i) (int_bound 7));
        (3, return Flush);
        (2, map (fun s -> Advance s) (oneofl [ 1; 5; 12; 40 ]));
        (1, return Reset);
      ])

let print_op = function
  | Announce (i, a) -> Fmt.str "announce %s a%d" (Net.Ipv4.prefix_to_string pool.(i)) a
  | Withdraw i -> Fmt.str "withdraw %s" (Net.Ipv4.prefix_to_string pool.(i))
  | Flush -> "flush"
  | Advance s -> Fmt.str "advance %ds" s
  | Reset -> "reset"

type case = { paced : bool; on_withdrawals : bool; hooked : bool; ops : op list }

let gen_case =
  QCheck.Gen.(
    map
      (fun ((paced, on_withdrawals, hooked), ops) -> { paced; on_withdrawals; hooked; ops })
      (pair (triple bool bool bool) (list_size (int_range 1 60) gen_op)))

let print_case c =
  Fmt.str "paced=%b mrai_on_withdrawals=%b hooked=%b\n%s" c.paced c.on_withdrawals c.hooked
    (String.concat "\n" (List.map print_op c.ops))

let same_update (a : Bgp.Message.update) (b : Bgp.Message.update) =
  List.equal
    (fun (p, x) (q, y) -> Net.Ipv4.equal_prefix p q && x == y)
    a.Bgp.Message.announced b.Bgp.Message.announced
  && List.equal Net.Ipv4.equal_prefix a.Bgp.Message.withdrawn b.Bgp.Message.withdrawn

module Pm = Net.Ipv4.Prefix_map

(* Both sides run on their own sim with the same jittered config and RNG
   seed, so equal UPDATEs at equal times also mean equal timer draws.
   The table keeps only unsent changes; like its owners, the harness
   derives what the peer holds from the UPDATE stream the table itself
   has sent (its view: the queued change, else that) and queues a
   change only where the view differs. *)
let run_case c =
  let config =
    {
      Bgp.Config.default with
      Bgp.Config.mrai = Time.sec 10;
      mrai_on_withdrawals = c.on_withdrawals;
    }
  in
  let side () =
    let sim = Sim.create () in
    let sent = ref [] in
    let send u = sent := (Time.to_us (Sim.now sim), u) :: !sent in
    (sim, sent, send)
  in
  let sim_a, sent_a, send_a = side () and sim_b, sent_b, send_b = side () in
  (* What the peer was sent, from the table's own UPDATEs. *)
  let told = ref Pm.empty in
  let send_a (u : Bgp.Message.update) =
    told := List.fold_left (fun m prefix -> Pm.remove prefix m) !told u.Bgp.Message.withdrawn;
    told := List.fold_left (fun m (prefix, a) -> Pm.add prefix a m) !told u.Bgp.Message.announced;
    send_a u
  in
  (* hooked: the table sits in a batch scope that never closes, so a
     dirty table waits for an explicit flush *)
  let batch = Bgp.Mrai.batch () in
  if c.hooked then Bgp.Mrai.enter batch;
  let table, model =
    if c.paced then
      ( Bgp.Mrai.create ~batch sim_a ~rng:(Rng.create 42) ~config ~send:send_a,
        Mrai_reference.create sim_b ~rng:(Rng.create 42) ~config ~send:send_b )
    else (Bgp.Mrai.unpaced ~batch ~send:send_a (), Mrai_reference.unpaced ~send:send_b)
  in
  if c.hooked then Mrai_reference.set_on_dirty model ignore;
  let view prefix = Bgp.Mrai.view table prefix ~sent:(Pm.find_opt prefix !told) in
  let counter sim name =
    Engine.Metrics.value (Engine.Metrics.snapshot (Sim.metrics sim) ~at:(Sim.now sim)) name
  in
  List.for_all
    (fun op ->
      (match op with
      | Announce (i, a) ->
        let prefix = pool.(i) and attrs = attr_pool.(a) in
        (match view prefix with
        | Some v when Bgp.Attrs.wire_equal v attrs -> ()
        | Some _ | None -> Bgp.Mrai.announce table prefix attrs);
        Mrai_reference.announce model prefix attrs
      | Withdraw i ->
        let prefix = pool.(i) in
        if view prefix <> None then Bgp.Mrai.withdraw table prefix;
        Mrai_reference.withdraw model prefix
      | Flush ->
        Bgp.Mrai.flush_event table;
        Mrai_reference.flush_event model
      | Advance s ->
        let until sim = Time.add (Sim.now sim) (Time.sec s) in
        ignore (Sim.run ~until:(until sim_a) sim_a);
        ignore (Sim.run ~until:(until sim_b) sim_b)
      | Reset ->
        Bgp.Mrai.reset table;
        told := Pm.empty;
        Mrai_reference.reset model);
      List.equal (fun (t, u) (t', u') -> t = t' && same_update u u') !sent_a !sent_b
      && Bgp.Mrai.pending_count table = Mrai_reference.pending_count model
      && Bgp.Mrai.is_throttled table = Mrai_reference.is_throttled model
      && Array.for_all
           (fun prefix ->
             match (view prefix, Mrai_reference.advertised model prefix) with
             | None, None -> true
             | Some x, Some y -> x == y
             | _ -> false)
           pool
      && List.for_all
           (fun name -> counter sim_a name = counter sim_b name)
           [ "bgp_mrai_deferrals_total"; "bgp_mrai_flushes_total" ])
    c.ops

let prop_reference =
  QCheck.Test.make ~name:"outbound table = persistent-map reference" ~count:500
    (QCheck.make ~print:print_case gen_case)
    run_case

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
    QCheck_alcotest.to_alcotest prop_reference;
  ]
