(* System-level invariants on randomized full-stack emulations: these are
   the properties that make the emulator trustworthy as an experimental
   instrument.

   After running a random topology with random originations to
   quiescence:
   I1. peer-state consistency — what A's Adj-RIB-Out says it advertised
       to B is exactly what B's Adj-RIB-In holds from A;
   I2. decision fixed point — re-running the decision process changes no
       router's best route;
   I3. loc-rib paths are simple (no AS appears twice);
   I4. the data plane never loops (walks end in delivery or blackhole);
   I5. under Gao-Rexford policies, every selected path is valley-free;
   I6. at rest nothing is queued: no router peer or speaker session
       holds an unsent change, each established router peer's
       Adj-RIB-Out is the export predicate applied to the Loc-RIB, and
       each speaker session's is what its legacy neighbor holds from
       the member. *)

let cfg = Framework.Config.fast_test

(* Build, start, originate a couple of prefixes, settle. *)
let settled_network ~spec ~seed ~origins =
  let net = Framework.Network.create ~config:cfg ~seed spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let plan = Framework.Network.plan net in
  List.iter
    (fun asn -> Framework.Network.originate net asn (plan.Framework.Addressing.origin_prefix asn))
    origins;
  ignore (Framework.Network.settle net);
  net

let random_spec seed =
  let rng = Engine.Rng.create seed in
  let n = 4 + Engine.Rng.int rng 5 in
  Topology.Random_models.erdos_renyi rng ~n ~p:0.4

let origins_of spec seed =
  let rng = Engine.Rng.create (seed + 7) in
  Engine.Rng.sample rng 2 (Topology.Spec.asns spec)

let all_prefixes net origins =
  let plan = Framework.Network.plan net in
  List.map (fun a -> plan.Framework.Addressing.origin_prefix a) origins

(* I1 *)
let check_peer_consistency net =
  let routers = Framework.Network.routers net in
  Net.Asn.Map.iter
    (fun a_asn a ->
      Net.Asn.Map.iter
        (fun b_asn b ->
          if (not (Net.Asn.equal a_asn b_asn)) && Bgp.Router.peer_established a b_asn then begin
            (* every prefix A believes it advertised to B... *)
            List.iter
              (fun (prefix, out_attrs) ->
                match Bgp.Router.adj_in_find b ~peer:a_asn prefix with
                | Some route ->
                  if not (Bgp.Attrs.wire_equal out_attrs (Bgp.Route.attrs route)) then
                    Alcotest.failf "adj-out/adj-in attrs mismatch %a->%a %a" Net.Asn.pp a_asn
                      Net.Asn.pp b_asn Net.Ipv4.pp_prefix prefix
                | None ->
                  Alcotest.failf "%a advertised %a to %a but it is missing" Net.Asn.pp a_asn
                    Net.Ipv4.pp_prefix prefix Net.Asn.pp b_asn)
              (List.filter_map
                 (fun prefix ->
                   Option.map (fun attrs -> (prefix, attrs))
                     (Bgp.Router.adj_out_find a ~peer:b_asn prefix))
                 (List.map fst (Bgp.Router.loc_entries a)));
            (* ...and B holds nothing from A that A does not claim *)
            List.iter
              (fun (prefix, _) ->
                match Bgp.Router.adj_in_find b ~peer:a_asn prefix with
                | Some _ ->
                  if Bgp.Router.adj_out_find a ~peer:b_asn prefix = None then
                    Alcotest.failf "%a holds ghost route from %a for %a" Net.Asn.pp b_asn
                      Net.Asn.pp a_asn Net.Ipv4.pp_prefix prefix
                | None -> ())
              (Bgp.Router.loc_entries b)
          end)
        routers)
    routers

(* I2 *)
let check_decision_fixed_point net prefixes =
  Net.Asn.Map.iter
    (fun asn router ->
      List.iter
        (fun prefix ->
          let stored = Bgp.Router.best router prefix in
          let recomputed = Bgp.Decision.select (Bgp.Router.candidates router prefix) in
          let same =
            match (stored, recomputed) with
            | None, None -> true
            | Some a, Some b ->
              Bgp.Route.source a = Bgp.Route.source b
              && Bgp.Attrs.wire_equal (Bgp.Route.attrs a) (Bgp.Route.attrs b)
            | _ -> false
          in
          if not same then
            Alcotest.failf "decision not a fixed point at %a for %a" Net.Asn.pp asn
              Net.Ipv4.pp_prefix prefix)
        prefixes)
    (Framework.Network.routers net)

(* I3 *)
let check_simple_paths net =
  Net.Asn.Map.iter
    (fun asn router ->
      List.iter
        (fun (prefix, route) ->
          let path = Bgp.Attrs.as_path (Bgp.Route.attrs route) in
          let sorted = List.sort_uniq Net.Asn.compare path in
          if List.length sorted <> List.length path then
            Alcotest.failf "non-simple path at %a for %a" Net.Asn.pp asn Net.Ipv4.pp_prefix
              prefix)
        (Bgp.Router.loc_entries router))
    (Framework.Network.routers net)

(* I4 *)
let check_no_forwarding_loops net origins =
  let plan = Framework.Network.plan net in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Net.Asn.equal src dst) then begin
            match
              Framework.Monitor.walk net ~src
                ~dst_addr:(plan.Framework.Addressing.host_addr dst)
            with
            | Framework.Monitor.Loop path ->
              Alcotest.failf "forwarding loop %a->%a via [%a]" Net.Asn.pp src Net.Asn.pp dst
                Fmt.(list ~sep:sp Net.Asn.pp)
                path
            | Framework.Monitor.Ttl_exceeded _ -> Alcotest.fail "ttl exceeded (hidden loop?)"
            | Framework.Monitor.Delivered _ | Framework.Monitor.Blackhole _ -> ()
          end)
        origins)
    (Topology.Spec.asns (Framework.Network.spec net))

(* I5: up* flat? down* — once a path goes toward a customer (down) or
   crosses a peer link (flat), it may never go back up or flat again. *)
let check_valley_free spec net =
  let rel ~of_asn ~toward =
    match
      List.find_opt
        (fun (l : Topology.Spec.link_spec) ->
          (Net.Asn.equal l.Topology.Spec.a of_asn && Net.Asn.equal l.Topology.Spec.b toward)
          || (Net.Asn.equal l.Topology.Spec.b of_asn && Net.Asn.equal l.Topology.Spec.a toward))
        (Topology.Spec.links spec)
    with
    | Some l -> Some (Topology.Spec.neighbor_role_of_link ~me:of_asn l)
    | None -> None
  in
  Net.Asn.Map.iter
    (fun asn router ->
      List.iter
        (fun (prefix, route) ->
          (* hops walked from this AS toward the origin *)
          let hops = asn :: Bgp.Attrs.as_path (Bgp.Route.attrs route) in
          let rec walk descended = function
            | a :: (b :: _ as rest) -> (
              match rel ~of_asn:a ~toward:b with
              | Some Topology.Spec.Provider | Some Topology.Spec.Sibling
              | Some Topology.Spec.Unrestricted ->
                (* climbing or policy-free: only legal before any descent *)
                if descended && rel ~of_asn:a ~toward:b = Some Topology.Spec.Provider then
                  Alcotest.failf "valley in path at %a for %a" Net.Asn.pp asn
                    Net.Ipv4.pp_prefix prefix
                else walk descended rest
              | Some Topology.Spec.Peer ->
                if descended then
                  Alcotest.failf "peer crossing after descent at %a for %a" Net.Asn.pp asn
                    Net.Ipv4.pp_prefix prefix
                else walk true rest
              | Some Topology.Spec.Customer -> walk true rest
              | None -> walk descended rest (* non-adjacent: speaker-mediated hop *))
            | [ _ ] | [] -> ()
          in
          walk false hops)
        (Bgp.Router.loc_entries router))
    (Framework.Network.routers net)

(* I6 *)
let policy_of_role = function
  | Topology.Spec.Customer -> Bgp.Policy.Customer
  | Topology.Spec.Provider -> Bgp.Policy.Provider
  | Topology.Spec.Peer -> Bgp.Policy.Peer
  | Topology.Spec.Sibling -> Bgp.Policy.Sibling
  | Topology.Spec.Unrestricted -> Bgp.Policy.Unrestricted

let check_at_rest net =
  let spec = Framework.Network.spec net and plan = Framework.Network.plan net in
  let routers = Framework.Network.routers net in
  (* [me]'s policy toward [neighbor]: the spec's relationship, Customer
     for the route collector. *)
  let policy ~me ~neighbor =
    if Net.Asn.equal neighbor Framework.Network.collector_asn then Bgp.Policy.Customer
    else
      match Topology.Spec.neighbor_role spec ~me ~neighbor with
      | Some role -> policy_of_role role
      | None -> Bgp.Policy.Unrestricted
  in
  Net.Asn.Map.iter
    (fun a_asn a ->
      if Bgp.Router.queued_count a <> 0 then
        Alcotest.failf "%a holds %d unsent changes at rest" Net.Asn.pp a_asn
          (Bgp.Router.queued_count a);
      List.iter
        (fun b_asn ->
          if Bgp.Router.peer_established a b_asn then
            List.iter
              (fun (prefix, route) ->
                let provenance =
                  match Bgp.Route.from_peer route with
                  | None -> Bgp.Policy.Originated
                  | Some q -> Bgp.Policy.learned_from (policy ~me:a_asn ~neighbor:q)
                in
                let want =
                  if
                    Bgp.Route.from_peer route <> Some b_asn
                    && (not (Bgp.Attrs.path_contains (Bgp.Route.attrs route) b_asn))
                    && Bgp.Policy.export_allowed ~to_rel:(policy ~me:a_asn ~neighbor:b_asn)
                         ~provenance
                  then
                    Some
                      (Bgp.Attrs.exported (Bgp.Route.attrs route) ~asn:a_asn
                         ~next_hop:(plan.Framework.Addressing.router_addr a_asn))
                  else None
                in
                if not (Option.equal ( == ) want (Bgp.Router.adj_out_find a ~peer:b_asn prefix))
                then
                  Alcotest.failf "%a's Adj-RIB-Out toward %a for %a is not its export"
                    Net.Asn.pp a_asn Net.Asn.pp b_asn Net.Ipv4.pp_prefix prefix)
              (Bgp.Router.loc_entries a))
        (Bgp.Router.peer_asns a))
    routers;
  match Framework.Network.speaker net with
  | None -> ()
  | Some speaker ->
    if Cluster_ctl.Speaker.queued_count speaker <> 0 then
      Alcotest.failf "the speaker holds %d unsent changes at rest"
        (Cluster_ctl.Speaker.queued_count speaker);
    List.iter
      (fun s ->
        let member = Cluster_ctl.Speaker.session_member s
        and neighbor = Cluster_ctl.Speaker.session_neighbor s in
        match Net.Asn.Map.find_opt neighbor routers with
        | Some n when Cluster_ctl.Speaker.is_established s ->
          List.iter
            (fun (prefix, _) ->
              let held =
                Option.map Bgp.Route.attrs (Bgp.Router.adj_in_find n ~peer:member prefix)
              in
              let told = Cluster_ctl.Speaker.advertised speaker ~member ~neighbor prefix in
              if not (Option.equal Bgp.Attrs.wire_equal held told) then
                Alcotest.failf "session %a->%a: Adj-RIB-Out for %a is not what %a holds"
                  Net.Asn.pp member Net.Asn.pp neighbor Net.Ipv4.pp_prefix prefix Net.Asn.pp
                  neighbor)
            (Bgp.Router.loc_entries n)
        | Some _ | None -> ())
      (Cluster_ctl.Speaker.sessions speaker)

let run_invariant_battery seed =
  let spec = random_spec seed in
  let origins = origins_of spec seed in
  let net = settled_network ~spec ~seed ~origins in
  let prefixes = all_prefixes net origins in
  check_peer_consistency net;
  check_decision_fixed_point net prefixes;
  check_simple_paths net;
  check_no_forwarding_loops net origins;
  check_at_rest net

let test_invariants_random_topologies () =
  List.iter run_invariant_battery [ 101; 202; 303; 404; 505; 616; 727; 838; 949; 1060 ]

let test_invariants_after_failures () =
  (* Same battery, but after killing and restoring random links. *)
  List.iter
    (fun seed ->
      let spec = random_spec seed in
      let origins = origins_of spec seed in
      let net = settled_network ~spec ~seed ~origins in
      let rng = Engine.Rng.create (seed * 13) in
      let links = Topology.Spec.links spec in
      let victims = Engine.Rng.sample rng 2 links in
      List.iter
        (fun (l : Topology.Spec.link_spec) ->
          Framework.Network.fail_link net l.Topology.Spec.a l.Topology.Spec.b)
        victims;
      ignore (Framework.Network.settle net);
      check_peer_consistency net;
      check_decision_fixed_point net (all_prefixes net origins);
      check_simple_paths net;
      check_no_forwarding_loops net origins;
      check_at_rest net;
      (* and again after recovery *)
      List.iter
        (fun (l : Topology.Spec.link_spec) ->
          Framework.Network.recover_link net l.Topology.Spec.a l.Topology.Spec.b)
        victims;
      ignore (Framework.Network.settle net);
      check_peer_consistency net;
      check_no_forwarding_loops net origins;
      check_at_rest net)
    [ 606; 707; 808 ]

let test_invariants_hybrid () =
  (* The battery on hybrid networks: half the ASes centralized. *)
  List.iter
    (fun seed ->
      let spec = random_spec seed in
      let asns = Topology.Spec.asns spec in
      let k = List.length asns / 2 in
      let sdn = List.filteri (fun i _ -> i >= List.length asns - k) asns in
      let spec = Topology.Spec.with_sdn spec sdn in
      let origins =
        List.filter (fun a -> not (List.exists (Net.Asn.equal a) sdn)) asns
        |> fun legacy -> [ List.hd legacy ]
      in
      let net = settled_network ~spec ~seed ~origins in
      check_peer_consistency net;
      check_simple_paths net;
      check_no_forwarding_loops net origins;
      check_at_rest net)
    [ 111; 222; 333 ]

let test_valley_free_on_internet () =
  List.iter
    (fun seed ->
      let rng = Engine.Rng.create seed in
      let spec = Topology.Caida.generate ~tier1:3 ~tier2:6 ~stubs:10 rng in
      (* stubs originate *)
      let origins = Topology.Caida.stub_asns ~tier1:3 ~tier2:6 ~stubs:10 |> Engine.Rng.sample rng 3 in
      let net = settled_network ~spec ~seed ~origins in
      check_valley_free spec net;
      check_peer_consistency net;
      check_simple_paths net;
      check_at_rest net)
    [ 11; 22; 33 ]

let suite =
  [
    Alcotest.test_case "random topologies" `Slow test_invariants_random_topologies;
    Alcotest.test_case "after link failures" `Slow test_invariants_after_failures;
    Alcotest.test_case "hybrid networks" `Slow test_invariants_hybrid;
    Alcotest.test_case "valley-free on internet graphs" `Slow test_valley_free_on_internet;
  ]
