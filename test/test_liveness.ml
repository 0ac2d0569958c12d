(* BGP keepalive/hold liveness and quiet-period convergence detection. *)

open Engine

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let asn = Net.Asn.of_int

let keepalive_config =
  {
    (Bgp.Config.no_jitter
       { Bgp.Config.default with Bgp.Config.mrai = Time.sec 1;
         proc_delay_min = Time.ms 1; proc_delay_max = Time.ms 1 })
    with
    Bgp.Config.keepalives =
      Some { Bgp.Config.interval = Time.sec 5; hold_time = Time.sec 15 };
  }

(* A blockable two-router harness: messages can be silently discarded to
   model a gray failure the link layer never reports. *)
type env = {
  sim : Sim.t;
  a : Bgp.Router.t;
  b : Bgp.Router.t;
  blocked : bool ref;
}

let setup () =
  let sim = Sim.create ~seed:4 () in
  let blocked = ref false in
  let handlers : (int, from:int -> Bgp.Message.t -> unit) Hashtbl.t = Hashtbl.create 4 in
  let make n =
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
        ~config:keepalive_config ~send ()
    in
    Hashtbl.replace handlers n (fun ~from msg -> Bgp.Router.handle_message r ~from msg);
    r
  in
  let a = make 65001 and b = make 65002 in
  Bgp.Router.add_peer a ~peer_asn:(asn 65002) ~peer_node:65002
    ~policy:Bgp.Policy.Unrestricted;
  Bgp.Router.add_peer b ~peer_asn:(asn 65001) ~peer_node:65001
    ~policy:Bgp.Policy.Unrestricted;
  Bgp.Router.start a;
  Bgp.Router.start b;
  { sim; a; b; blocked }

let run_until env t = ignore (Sim.run ~until:t env.sim)

let test_keepalives_maintain_session () =
  let env = setup () in
  run_until env (Time.sec 300);
  Alcotest.(check bool) "still established after 5 min" true
    (Bgp.Router.peer_established env.a (asn 65002));
  (* ~one keepalive per 5 s each way *)
  Alcotest.(check bool) "keepalives flowed" true
    ((Bgp.Router.stats env.a).Bgp.Router.msgs_out > 50)

let test_silent_failure_detected () =
  let env = setup () in
  run_until env (Time.sec 20);
  Alcotest.(check bool) "established" true (Bgp.Router.peer_established env.a (asn 65002));
  env.blocked := true;
  (* hold time is 15 s: the session must die within ~16 s of silence *)
  run_until env (Time.sec 40);
  Alcotest.(check bool) "a detected the gray failure" false
    (Bgp.Router.peer_established env.a (asn 65002));
  Alcotest.(check bool) "b detected it too" false
    (Bgp.Router.peer_established env.b (asn 65001))

let test_routes_flushed_on_hold_expiry () =
  let env = setup () in
  run_until env (Time.sec 10);
  Bgp.Router.originate env.a (p "100.64.0.0/24");
  run_until env (Time.sec 20);
  Alcotest.(check bool) "b learned" true (Bgp.Router.best env.b (p "100.64.0.0/24") <> None);
  env.blocked := true;
  run_until env (Time.sec 60);
  Alcotest.(check bool) "b flushed on hold expiry" true
    (Bgp.Router.best env.b (p "100.64.0.0/24") = None)

(* Quiet-period detection at the framework level, with keepalives keeping
   the event queue permanently non-empty. *)
let test_wait_quiet_with_keepalives () =
  let config =
    {
      Framework.Config.fast_test with
      Framework.Config.bgp =
        {
          Framework.Config.fast_test.Framework.Config.bgp with
          Bgp.Config.keepalives =
            Some { Bgp.Config.interval = Time.sec 10; hold_time = Time.sec 30 };
        };
    }
  in
  let net =
    Framework.Network.create ~config ~seed:6 (Topology.Artificial.clique 3)
  in
  let watcher = Framework.Convergence.attach net in
  Framework.Network.start net;
  let origin = Topology.Artificial.asn 0 in
  let plan = Framework.Network.plan net in
  Framework.Network.originate net origin (plan.Framework.Addressing.origin_prefix origin);
  (match Framework.Convergence.wait_quiet ~quiet:(Time.sec 5) watcher with
  | `Quiet at -> Alcotest.(check bool) "quiet reached" true Time.(at > Time.zero)
  | `Timeout _ -> Alcotest.fail "must go quiet");
  (* routes are in place even though the queue never drained *)
  let r1 = Option.get (Framework.Network.router net (Topology.Artificial.asn 1)) in
  Alcotest.(check bool) "route present" true
    (Bgp.Router.best r1 (plan.Framework.Addressing.origin_prefix origin) <> None)

let suite =
  [
    Alcotest.test_case "keepalives maintain session" `Quick test_keepalives_maintain_session;
    Alcotest.test_case "silent failure detected" `Quick test_silent_failure_detected;
    Alcotest.test_case "routes flushed on hold expiry" `Quick test_routes_flushed_on_hold_expiry;
    Alcotest.test_case "wait_quiet with keepalives" `Quick test_wait_quiet_with_keepalives;
  ]
