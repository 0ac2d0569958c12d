(* Bgp.Session: the per-peer session FSM, hold-time negotiation, the
   hold-expiry purge, and the deterministic reconnect backoff. *)

open Engine

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let asn = Net.Asn.of_int

let keepalive_config =
  Bgp.Config.with_reconnect
    (Bgp.Config.with_keepalives
       ~keepalive:{ Bgp.Config.interval = Time.sec 5; hold_time = Time.sec 15 }
       { Bgp.Config.default with Bgp.Config.mrai = Time.sec 1;
         proc_delay_min = Time.ms 1; proc_delay_max = Time.ms 1 })

(* Blockable two-router harness (same shape as test_liveness, plus
   per-router configs so hold negotiation can be asymmetric). *)
type env = {
  sim : Sim.t;
  a : Bgp.Router.t;
  b : Bgp.Router.t;
  blocked : bool ref;
}

let setup ?(seed = 11) ?(config_b = keepalive_config) () =
  let sim = Sim.create ~seed () in
  let blocked = ref false in
  let handlers : (int, from:int -> Bgp.Message.t -> unit) Hashtbl.t = Hashtbl.create 4 in
  let make n config =
    let send ~dst msg =
      if !blocked then true (* silently dropped on the wire *)
      else
        match Hashtbl.find_opt handlers dst with
        | None -> false
        | Some handler ->
          ignore (Sim.schedule_after sim (Time.ms 1) (fun () -> handler ~from:n msg));
          true
    in
    let r =
      Bgp.Router.create ~sim ~asn:(asn n) ~node_id:n
        ~router_id:(Net.Ipv4.addr_of_octets 10 0 (n mod 256) 1)
        ~config ~send ()
    in
    Hashtbl.replace handlers n (fun ~from msg -> Bgp.Router.handle_message r ~from msg);
    r
  in
  let a = make 65001 keepalive_config and b = make 65002 config_b in
  Bgp.Router.add_peer a ~peer_asn:(asn 65002) ~peer_node:65002
    ~policy:Bgp.Policy.Unrestricted;
  Bgp.Router.add_peer b ~peer_asn:(asn 65001) ~peer_node:65001
    ~policy:Bgp.Policy.Unrestricted;
  { sim; a; b; blocked }

let start env =
  Bgp.Router.start env.a;
  Bgp.Router.start env.b

let run_until env t = ignore (Sim.run ~until:t env.sim)

let state_a env = Bgp.Router.session_state env.a (asn 65002)

(* --- The FSM itself ----------------------------------------------------- *)

let test_state_encoding () =
  let sim = Sim.create () in
  let node = Node.create sim ~name:"r" in
  let wire = ref [] in
  let ep =
    Bgp.Session.endpoint node ~rng:(Sim.rng sim) ~category:"test"
      ~send:(fun key msg ->
        Alcotest.(check int) "the session's key" 7 key;
        wire := msg :: !wire;
        true)
      ~on_expired:ignore None
  in
  let s =
    Bgp.Session.create ep ~asn:(asn 65001) ~router_id:(Net.Ipv4.addr_of_octets 10 0 0 1) ~key:7
  in
  let state () = Bgp.Session.to_string (Bgp.Session.state s) in
  Alcotest.(check string) "idle" "idle" (state ());
  Alcotest.(check bool) "connect sends" true (Bgp.Session.connect s);
  Alcotest.(check string) "connect" "connect" (state ());
  Alcotest.(check bool) "second connect is a no-op" false (Bgp.Session.connect s);
  Alcotest.(check bool) "peer OPEN establishes" true (Bgp.Session.receive_open s ~hold_time:0);
  Alcotest.(check string) "established" "established" (state ());
  Alcotest.(check int) "one OPEN on the wire" 1 (List.length !wire);
  Alcotest.(check bool) "teardown" true (Bgp.Session.teardown s);
  Alcotest.(check string) "idle again" "idle" (state ());
  (* stable gauge encoding *)
  Alcotest.(check (list int)) "to_int" [ 0; 1; 2 ]
    (List.map Bgp.Session.to_int [ Bgp.Session.Idle; Bgp.Session.Connect; Bgp.Session.Established ])

let test_fsm_transitions () =
  let env = setup () in
  Alcotest.(check bool) "idle before start" true (state_a env = Bgp.Session.Idle);
  (* OPEN goes out into a black hole: the session sits in Connect *)
  env.blocked := true;
  start env;
  run_until env (Time.ms 100);
  Alcotest.(check bool) "connect while OPEN unanswered" true
    (state_a env = Bgp.Session.Connect);
  (* the wire heals before the retry budget runs out *)
  env.blocked := false;
  run_until env (Time.sec 40);
  Alcotest.(check bool) "established once answered" true
    (state_a env = Bgp.Session.Established)

(* --- Hold expiry -------------------------------------------------------- *)

let test_hold_expiry_purges_adj_in () =
  let env = setup () in
  start env;
  run_until env (Time.sec 5);
  Bgp.Router.originate env.a (p "100.64.0.0/24");
  run_until env (Time.sec 10);
  Alcotest.(check bool) "b holds the route in Adj-RIB-In" true
    (Bgp.Router.adj_in_find env.b ~peer:(asn 65001) (p "100.64.0.0/24") <> None);
  env.blocked := true;
  run_until env (Time.sec 40);
  Alcotest.(check bool) "session no longer established" false
    (Bgp.Router.peer_established env.b (asn 65001));
  Alcotest.(check bool) "hold expiry purged Adj-RIB-In" true
    (Bgp.Router.adj_in_find env.b ~peer:(asn 65001) (p "100.64.0.0/24") = None);
  Alcotest.(check bool) "Loc-RIB withdrawn too" true
    (Bgp.Router.best env.b (p "100.64.0.0/24") = None)

let test_hold_zero_disables_liveness () =
  (* b negotiates hold 0 (no keepalives configured): RFC 4271 semantics —
     neither side may tear the session down on silence. *)
  let env = setup ~config_b:{ keepalive_config with Bgp.Config.keepalives = None } () in
  start env;
  run_until env (Time.sec 5);
  env.blocked := true;
  run_until env (Time.sec 120);
  Alcotest.(check bool) "a never expires the session" true
    (Bgp.Router.peer_established env.a (asn 65002));
  Alcotest.(check bool) "b never expires the session" true
    (Bgp.Router.peer_established env.b (asn 65001))

(* --- Reconnect ---------------------------------------------------------- *)

let test_reconnect_after_outage () =
  let env = setup () in
  start env;
  run_until env (Time.sec 5);
  Bgp.Router.originate env.a (p "100.64.0.0/24");
  run_until env (Time.sec 10);
  env.blocked := true;
  (* outage long enough for hold expiry on both ends, short enough that
     the ~63 s cumulative retry budget still has attempts left *)
  run_until env (Time.sec 45);
  Alcotest.(check bool) "down during the outage" false
    (Bgp.Router.peer_established env.a (asn 65002));
  env.blocked := false;
  run_until env (Time.sec 110);
  Alcotest.(check bool) "reconnected after the outage" true
    (Bgp.Router.peer_established env.a (asn 65002));
  Alcotest.(check bool) "route relearned after resync" true
    (Bgp.Router.best env.b (p "100.64.0.0/24") <> None)

let test_backoff_delay_determinism () =
  let b = Bgp.Session.default_backoff in
  let delays seed =
    let rng = Rng.create seed in
    List.init b.Bgp.Session.max_attempts (fun attempt ->
        Time.to_us (Bgp.Session.delay b rng ~attempt))
  in
  Alcotest.(check (list int)) "same seed, same schedule" (delays 7) (delays 7);
  Alcotest.(check bool) "different seed, different jitter" true (delays 7 <> delays 8);
  (* envelope: jitter shrinks each nominal delay by at most 25 %, and the
     cap bounds every retry *)
  let nominal attempt =
    Time.to_us
      (Time.min b.Bgp.Session.retry_max
         (Time.span_scale b.Bgp.Session.retry_initial
            (b.Bgp.Session.retry_multiplier ** float_of_int attempt)))
  in
  List.iteri
    (fun attempt d ->
      Alcotest.(check bool) "within jitter envelope" true
        (float_of_int d >= 0.75 *. float_of_int (nominal attempt) -. 1.0
        && d <= nominal attempt))
    (delays 7)

(* --- Determinism -------------------------------------------------------- *)

let render env =
  Fmt.str "a:%s b:%s a_out:%d b_out:%d best:%a"
    (Bgp.Session.to_string (Bgp.Router.session_state env.a (asn 65002)))
    (Bgp.Session.to_string (Bgp.Router.session_state env.b (asn 65001)))
    (Bgp.Router.stats env.a).Bgp.Router.msgs_out
    (Bgp.Router.stats env.b).Bgp.Router.msgs_out
    (Fmt.option ~none:(Fmt.any "-") (Bgp.Route.pp ~prefix:(p "100.64.0.0/24")))
    (Bgp.Router.best env.b (p "100.64.0.0/24"))

let test_same_seed_identical () =
  let episode () =
    let env = setup ~seed:2014 () in
    start env;
    run_until env (Time.sec 5);
    Bgp.Router.originate env.a (p "100.64.0.0/24");
    run_until env (Time.sec 10);
    env.blocked := true;
    run_until env (Time.sec 45);
    env.blocked := false;
    run_until env (Time.sec 110);
    render env
  in
  Alcotest.(check string) "byte-identical episodes" (episode ()) (episode ())

let suite =
  [
    Alcotest.test_case "state and gauge encoding" `Quick test_state_encoding;
    Alcotest.test_case "idle -> connect -> established" `Quick test_fsm_transitions;
    Alcotest.test_case "hold expiry purges Adj-RIB-In" `Quick test_hold_expiry_purges_adj_in;
    Alcotest.test_case "hold 0 disables liveness" `Quick test_hold_zero_disables_liveness;
    Alcotest.test_case "reconnect after an outage" `Quick test_reconnect_after_outage;
    Alcotest.test_case "backoff schedule is deterministic" `Quick test_backoff_delay_determinism;
    Alcotest.test_case "same-seed episodes identical" `Quick test_same_seed_identical;
  ]
