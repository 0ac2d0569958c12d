(* Cluster_ctl.Speaker in isolation: session FSM, relaying, dedup. *)

let asn = Net.Asn.of_int

let member = asn 65010

let neighbor = asn 65001

let nh = Net.Ipv4.addr_of_octets 10 0 10 1

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let policy = Bgp.Policy.Unrestricted

let setup ?liveness ?mrai_config () =
  let sim = Engine.Sim.create () in
  let wire = ref [] in
  let speaker =
    Cluster_ctl.Speaker.create ?liveness ~sim ~send_relay:(fun ~member ~neighbor msg ->
        wire := (member, neighbor, msg) :: !wire;
        true)
      ()
  in
  let updates = ref [] and sessions = ref [] in
  Cluster_ctl.Speaker.attach_controller speaker
    ~on_update:(fun s u ->
      updates :=
        (Cluster_ctl.Speaker.session_member s, Cluster_ctl.Speaker.session_neighbor s, u)
        :: !updates)
    ~on_session:(fun s ~up ->
      sessions :=
        (Cluster_ctl.Speaker.session_member s, Cluster_ctl.Speaker.session_neighbor s, up)
        :: !sessions);
  Cluster_ctl.Speaker.add_session ?mrai_config speaker ~member ~neighbor ~member_addr:nh ~policy;
  (speaker, wire, updates, sessions)

(* The member's decision for a prefix, [path] beyond the member itself:
   the speaker sends it as [member :: path]. *)
let decision path =
  {
    Cluster_ctl.As_graph.member;
    hop = Cluster_ctl.As_graph.Deliver_local;
    as_path = List.map asn path;
    distance = 0.;
    provenance = Bgp.Policy.Originated;
  }

let sync speaker pre path =
  ignore (Cluster_ctl.Speaker.sync speaker pre (Net.Asn.Map.singleton member (decision path)))

let sync_none speaker pre = ignore (Cluster_ctl.Speaker.sync speaker pre Net.Asn.Map.empty)

let open_msg = Bgp.Message.Open { asn = neighbor; router_id = nh; hold_time = 0 }

let update_msg =
  Bgp.Message.Update
    { Bgp.Message.announced = [ (p "1.2.3.0/24", Bgp.Attrs.make ~as_path:[ neighbor ] ~next_hop:nh ()) ];
      withdrawn = [] }

let test_open_handshake_preserves_identity () =
  let speaker, wire, _, sessions = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  (match !wire with
  | [ (m, n, Bgp.Message.Open { asn = open_asn; _ }) ] ->
    Alcotest.(check int) "to the right member switch" 65010 (Net.Asn.to_int m);
    Alcotest.(check int) "toward neighbor" 65001 (Net.Asn.to_int n);
    Alcotest.(check int) "speaks AS the member" 65010 (Net.Asn.to_int open_asn)
  | _ -> Alcotest.fail "expected OPEN out");
  Alcotest.(check (list (triple int int bool))) "controller notified up"
    [ (65010, 65001, true) ]
    (List.map (fun (m, n, up) -> (Net.Asn.to_int m, Net.Asn.to_int n, up)) !sessions);
  Alcotest.(check bool) "established" true
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor)

let test_update_relayed_to_controller () =
  let speaker, _, updates, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor update_msg;
  Alcotest.(check int) "one update" 1 (List.length !updates)

let test_update_before_open_dropped () =
  let speaker, _, updates, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor update_msg;
  Alcotest.(check int) "dropped when not established" 0 (List.length !updates)

let test_announce_dedup () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let before = List.length !wire in
  sync speaker (p "9.9.9.0/24") [];
  sync speaker (p "9.9.9.0/24") [];
  Alcotest.(check int) "identical announcement suppressed" (before + 1) (List.length !wire);
  sync speaker (p "9.9.9.0/24") [ 65020 ];
  Alcotest.(check int) "changed announcement sent" (before + 2) (List.length !wire)

let test_withdraw_only_if_advertised () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let before = List.length !wire in
  sync_none speaker (p "9.9.9.0/24");
  Alcotest.(check int) "nothing to withdraw" before (List.length !wire);
  sync speaker (p "9.9.9.0/24") [];
  sync_none speaker (p "9.9.9.0/24");
  Alcotest.(check int) "announce + withdraw" (before + 2) (List.length !wire);
  Alcotest.(check bool) "adj-out cleared" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None)

let test_session_down_clears_state () =
  let speaker, _, _, sessions = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  sync speaker (p "9.9.9.0/24") [];
  Alcotest.(check bool) "adj-out holds it" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") <> None);
  Cluster_ctl.Speaker.session_down speaker ~member ~neighbor;
  Alcotest.(check bool) "down" false
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  Alcotest.(check bool) "adj-out flushed" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None);
  Alcotest.(check bool) "down notified" true
    (List.exists (fun (_, _, up) -> not up) !sessions)

let test_duplicate_session_rejected () =
  let speaker, _, _, _ = setup () in
  match Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh ~policy with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate session must raise"

(* Liveness: 2 s KEEPALIVE interval, 6 s proposed hold. *)
let liveness = { Bgp.Config.interval = Engine.Time.sec 2; hold_time = Engine.Time.sec 6 }

let open_with_hold hold_time = Bgp.Message.Open { asn = neighbor; router_id = nh; hold_time }

let keepalives wire =
  List.length (List.filter (fun (_, _, msg) -> msg = Bgp.Message.Keepalive) !wire)

let test_liveness_hold_expiry () =
  let speaker, wire, _, sessions = setup ~liveness () in
  let sim = Engine.Node.sim (Cluster_ctl.Speaker.node speaker) in
  (* The neighbor OPENs with hold 6 and then stays silent. *)
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor (open_with_hold 6);
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 5) sim);
  Alcotest.(check bool) "KEEPALIVEs emitted before the hold runs out" true (keepalives wire >= 2);
  Alcotest.(check bool) "still established at 5 s" true
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 7) sim);
  (match !wire with
  | (_, _, Bgp.Message.Notification reason) :: _ ->
    Alcotest.(check string) "NOTIFICATION on the wire" "hold timer expired" reason
  | _ -> Alcotest.fail "expected a NOTIFICATION last on the wire");
  Alcotest.(check bool) "down" false
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  Alcotest.(check (list bool)) "controller told up, then down" [ false; true ]
    (List.map (fun (_, _, up) -> up) !sessions);
  let snap = Engine.Metrics.snapshot (Engine.Sim.metrics sim) ~at:(Engine.Sim.now sim) in
  Alcotest.(check (option (float 0.0))) "one hold expiry" (Some 1.0)
    (Engine.Metrics.value snap ~labels:[ ("node", "speaker") ] "bgp_hold_expirations_total");
  let sent = keepalives wire in
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 30) sim);
  Alcotest.(check int) "no KEEPALIVE after teardown" sent (keepalives wire)

let test_liveness_hold_zero () =
  let speaker, wire, _, _ = setup ~liveness () in
  let sim = Engine.Node.sim (Cluster_ctl.Speaker.node speaker) in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor (open_with_hold 0);
  Alcotest.(check int) "no timer armed" 0 (Engine.Sim.pending sim);
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 60) sim);
  Alcotest.(check int) "no KEEPALIVE" 0 (keepalives wire);
  Alcotest.(check bool) "established without liveness" true
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor)

(* With [mrai_config] a session's outbound table is paced: duplicates
   are dropped, changes coalesce while the timer runs, and a batch scope
   sends one UPDATE per session. *)
let mrai_config =
  Bgp.Config.no_jitter { Bgp.Config.default with Bgp.Config.mrai = Engine.Time.sec 10 }

let wire_updates wire =
  List.rev
    (List.filter_map
       (fun (m, n, msg) ->
         match msg with
         | Bgp.Message.Update u -> Some (Net.Asn.to_int m, Net.Asn.to_int n, u)
         | _ -> None)
       !wire)

(* An announcement's tag: the AS after the member, less 65100. *)
let tag (a : Bgp.Attrs.t) =
  match Bgp.Attrs.as_path a with _ :: t :: _ -> Net.Asn.to_int t - 65100 | _ -> -1

let tags (u : Bgp.Message.update) = List.map (fun (_, a) -> tag a) u.Bgp.Message.announced

let test_mrai_session () =
  let speaker, wire, _, _ = setup ~mrai_config () in
  let sim = Engine.Node.sim (Cluster_ctl.Speaker.node speaker) in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let pre = p "9.9.9.0/24" in
  let sync k = sync speaker pre [ 65100 + k ] in
  sync 1;
  sync 1;
  Alcotest.(check (list (list int))) "first change sent at once, duplicate dropped" [ [ 1 ] ]
    (List.map (fun (_, _, u) -> tags u) (wire_updates wire));
  sync 2;
  sync 3;
  Alcotest.(check int) "throttled: nothing more on the wire" 1 (List.length (wire_updates wire));
  ignore (Engine.Sim.run ~until:(Engine.Time.ms 9_999) sim);
  Alcotest.(check int) "held until the MRAI boundary" 1 (List.length (wire_updates wire));
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 10) sim);
  Alcotest.(check (list (list int))) "one flush at expiry, latest only" [ [ 1 ]; [ 3 ] ]
    (List.map (fun (_, _, u) -> tags u) (wire_updates wire));
  Alcotest.(check (option int)) "adj-out holds the latest" (Some 3)
    (Option.map tag (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor pre))

let test_mrai_batch () =
  let speaker, wire, _, _ = setup ~mrai_config () in
  let other = asn 65002 in
  Cluster_ctl.Speaker.add_session ~mrai_config speaker ~member ~neighbor:other ~member_addr:nh
    ~policy;
  List.iter
    (fun n ->
      Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor:n
        (Bgp.Message.Open { asn = n; router_id = nh; hold_time = 0 }))
    [ neighbor; other ];
  let prefixes = [ p "9.9.9.0/24"; p "1.1.1.0/24"; p "5.5.5.0/24" ] in
  let s_neighbor, s_other =
    match Cluster_ctl.Speaker.sessions speaker with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "two sessions"
  in
  (* [other] is queued first: the close must still flush in configuration
     order, not in the order the sessions were dirtied. *)
  Cluster_ctl.Speaker.with_batch speaker (fun () ->
      List.iter
        (fun s ->
          ignore
            (Cluster_ctl.Speaker.resync speaker s prefixes (fun _ ->
                 Net.Asn.Map.singleton member (decision []))))
        [ s_other; s_neighbor ];
      Alcotest.(check int) "nothing sent inside the scope" 0 (List.length (wire_updates wire)));
  Alcotest.(check (list (pair int (list string))))
    "one UPDATE per session, configuration order, prefix order"
    [
      (65001, [ "1.1.1.0/24"; "5.5.5.0/24"; "9.9.9.0/24" ]);
      (65002, [ "1.1.1.0/24"; "5.5.5.0/24"; "9.9.9.0/24" ]);
    ]
    (List.map
       (fun (_, n, u) ->
         (n, List.map (fun (pre, _) -> Net.Ipv4.prefix_to_string pre) u.Bgp.Message.announced))
       (wire_updates wire))

(* A raising body closes the scope (flushing what it queued) and the
   exception leaves as itself; so does one raised by the flush, unwrapped
   (no [Fun.Finally_raised]). *)
let test_batch_raises () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  (match
     Cluster_ctl.Speaker.with_batch speaker (fun () ->
         sync speaker (p "9.9.9.0/24") [];
         raise Exit)
   with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  Alcotest.(check int) "queued change flushed on the way out" 1 (List.length (wire_updates wire));
  sync speaker (p "1.1.1.0/24") [];
  Alcotest.(check int) "scope closed: later changes go out at once" 2
    (List.length (wire_updates wire));
  let sim = Engine.Sim.create () in
  let speaker =
    Cluster_ctl.Speaker.create ~sim
      ~send_relay:(fun ~member:_ ~neighbor:_ -> function
        | Bgp.Message.Update _ -> failwith "relay down" | _ -> true)
      ()
  in
  Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh ~policy;
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  match
    Cluster_ctl.Speaker.with_batch speaker (fun () -> sync speaker (p "9.9.9.0/24") [])
  with
  | () -> Alcotest.fail "expected the flush to raise"
  | exception Failure msg -> Alcotest.(check string) "the flush's own exception" "relay down" msg

let suite =
  [
    Alcotest.test_case "open handshake + AS identity" `Quick test_open_handshake_preserves_identity;
    Alcotest.test_case "update relayed to controller" `Quick test_update_relayed_to_controller;
    Alcotest.test_case "update before open dropped" `Quick test_update_before_open_dropped;
    Alcotest.test_case "announce dedup" `Quick test_announce_dedup;
    Alcotest.test_case "withdraw only if advertised" `Quick test_withdraw_only_if_advertised;
    Alcotest.test_case "session down clears state" `Quick test_session_down_clears_state;
    Alcotest.test_case "duplicate session rejected" `Quick test_duplicate_session_rejected;
    Alcotest.test_case "liveness hold expiry" `Quick test_liveness_hold_expiry;
    Alcotest.test_case "liveness off at hold 0" `Quick test_liveness_hold_zero;
    Alcotest.test_case "mrai: dedup and coalescing" `Quick test_mrai_session;
    Alcotest.test_case "mrai: one UPDATE per session per batch" `Quick test_mrai_batch;
    Alcotest.test_case "batch scope closes on raise" `Quick test_batch_raises;
  ]
