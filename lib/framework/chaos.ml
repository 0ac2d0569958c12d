(* Seeded chaos campaigns: randomized fault schedules executed against a
   fresh network, with an invariant oracle at every quiescent point.

   A campaign is fully determined by (seed, runs, topology, fallback
   flag): schedule generation, fault timing, the emulation itself and the
   final state digests are all driven by deterministic RNG streams, so a
   campaign report — and its MD5 digest — is bit-identical across
   invocations.  That makes a failing schedule a *reproducer*: re-run the
   same seed and the same violation appears, then greedy minimization
   shrinks the schedule to the faults that actually matter. *)

(* --- Fault model --------------------------------------------------------

   A fault is a {!Scenario.action}: crash (restart at heal), fail-link
   (recover at heal), flap, loss-burst, partition ctrl and crash-head. *)

type event = { at : Engine.Time.t; heal_at : Engine.Time.t; fault : Scenario.action }

type schedule = { index : int; events : event list }

(* The report wording, frozen: campaign digests are computed over it. *)
let pp_fault ppf = function
  | Scenario.Fail_link (a, b) -> Fmt.pf ppf "link-down %a %a" Net.Asn.pp a Net.Asn.pp b
  | Scenario.Flap (a, b, n) -> Fmt.pf ppf "flap %a %a x%d" Net.Asn.pp a Net.Asn.pp b n
  | Scenario.Partition (a, None) -> Fmt.pf ppf "ctrl-partition %a" Net.Asn.pp a
  | Scenario.Crash_head -> Fmt.string ppf "head-crash"
  | fault -> Scenario.pp_action ppf fault

let pp_event ppf e =
  Fmt.pf ppf "%a@%.2f..%.2f" pp_fault e.fault
    (Engine.Time.to_sec_f e.at)
    (Engine.Time.to_sec_f e.heal_at)

(* Independent deterministic stream per (campaign seed, purpose). *)
let mix seed k = (seed * 1_000_003) + (k * 7919) + 1

(* --- Schedule generation ------------------------------------------------ *)

(* The default battlefield: the paper's 8-AS clique with a 3-member SDN
   sub-cluster — every failure domain (legacy BGP, cluster control plane,
   hybrid boundary) is present. *)
let default_spec () =
  let asn = Topology.Artificial.asn in
  Topology.Spec.with_sdn (Topology.Artificial.clique 8) [ asn 2; asn 3; asn 4 ]

(* Faults start inside [8 s, 14 s] (after initial convergence) and every
   schedule heals completely: crashes restart, links recover, loss
   clears.  Loss bursts outlast the 6 s hold time so KEEPALIVE liveness
   — not link watchers — must detect them. *)
let generate ~spec ~rng index =
  let as_links =
    List.map
      (fun (l : Topology.Spec.link_spec) -> (l.Topology.Spec.a, l.Topology.Spec.b))
      (Topology.Spec.links spec)
  in
  let sdn = Topology.Spec.sdn_asns spec in
  let nodes = Topology.Spec.asns spec in
  let n_faults = 1 + Engine.Rng.int rng 3 in
  let used_nodes = ref Net.Asn.Set.empty in
  let used_links = ref [] in
  let used_head = ref false in
  let touch asn = used_nodes := Net.Asn.Set.add asn !used_nodes in
  let fresh_node candidates =
    match
      List.filter (fun a -> not (Net.Asn.Set.mem a !used_nodes)) candidates
    with
    | [] -> None
    | free -> Some (Engine.Rng.pick rng free)
  in
  let fresh_link () =
    match
      List.filter
        (fun (a, b) ->
          (not (List.mem (a, b) !used_links))
          && (not (Net.Asn.Set.mem a !used_nodes))
          && not (Net.Asn.Set.mem b !used_nodes))
        as_links
    with
    | [] -> None
    | free -> Some (Engine.Rng.pick rng free)
  in
  let at () = Engine.Time.of_sec_f (8.0 +. Engine.Rng.float rng 6.0) in
  let heal_after at lo hi =
    Engine.Time.add at (Engine.Time.of_sec_f (lo +. Engine.Rng.float rng (hi -. lo)))
  in
  let rec draw remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let kind = Engine.Rng.int rng 6 in
      let event =
        match kind with
        | 0 -> (
          match fresh_node nodes with
          | Some a ->
            touch a;
            let t = at () in
            Some { at = t; heal_at = heal_after t 4.0 8.0; fault = Scenario.Crash_node a }
          | None -> None)
        | 1 -> (
          match fresh_link () with
          | Some (a, b) ->
            used_links := (a, b) :: !used_links;
            let t = at () in
            Some { at = t; heal_at = heal_after t 4.0 8.0; fault = Scenario.Fail_link (a, b) }
          | None -> None)
        | 2 -> (
          match fresh_link () with
          | Some (a, b) ->
            used_links := (a, b) :: !used_links;
            let cycles = 2 + Engine.Rng.int rng 3 in
            let t = at () in
            Some
              {
                at = t;
                heal_at = Engine.Time.add t (Engine.Time.sec cycles);
                fault = Scenario.Flap (a, b, cycles);
              }
          | None -> None)
        | 3 -> (
          match fresh_link () with
          | Some (a, b) ->
            used_links := (a, b) :: !used_links;
            let t = at () in
            Some { at = t; heal_at = heal_after t 8.0 12.0; fault = Scenario.Loss_burst (a, b) }
          | None -> None)
        | 4 -> (
          match fresh_node sdn with
          | Some m ->
            touch m;
            let t = at () in
            Some { at = t; heal_at = heal_after t 6.0 10.0; fault = Scenario.Partition (m, None) }
          | None -> None)
        | _ ->
          if !used_head || sdn = [] then None
          else begin
            used_head := true;
            let t = at () in
            Some { at = t; heal_at = heal_after t 5.0 9.0; fault = Scenario.Crash_head }
          end
      in
      match event with
      | Some e -> draw (remaining - 1) (e :: acc)
      | None -> draw (remaining - 1) acc (* kind unavailable: smaller schedule *)
    end
  in
  let events =
    draw n_faults [] |> List.stable_sort (fun a b -> Engine.Time.compare a.at b.at)
  in
  { index; events }

(* --- Fault execution ---------------------------------------------------- *)

let heal_of = function
  | Scenario.Crash_node a -> Scenario.Restart_node a
  | Scenario.Fail_link (a, b) | Scenario.Partition (a, Some b) -> Scenario.Recover_link (a, b)
  | Scenario.Loss_burst (a, b) -> Scenario.Loss_heal (a, b)
  | Scenario.Partition (a, None) -> Scenario.Recover_ctrl a
  | Scenario.Crash_head -> Scenario.Restart_head
  | fault -> invalid_arg (Fmt.str "Chaos: no heal for %a" Scenario.pp_action fault)

(* Injection, heal, injection, heal...: a flap's own fail/recover train,
   or the fault then its heal. *)
let steps e =
  match e.fault with
  | Scenario.Flap _ -> Scenario.expand { Scenario.at = e.at; action = e.fault }
  | fault ->
    [ { Scenario.at = e.at; action = fault }; { at = e.heal_at; action = heal_of fault } ]

(* Each injection/heal event carries its own category and a marker span
   labelled with the fault, so a flight-recorder dump shows which fault
   every causal subtree hangs off. *)
let apply_fault net e =
  let sim = Network.sim net in
  let label = Fmt.str "%a" pp_fault e.fault in
  List.iteri
    (fun i (step : Scenario.step) ->
      let category = if i mod 2 = 0 then "chaos.fault" else "chaos.heal" in
      ignore
        (Engine.Sim.schedule_at ~category sim step.at (fun () ->
             Engine.Sim.annotate sim ~category ~label ();
             Scenario.apply net step.action)))
    (steps e)

(* --- State digest ------------------------------------------------------- *)

(* A deterministic rendering of the converged control and data planes:
   session FSM states, Loc-RIBs, flow tables, controller decisions and
   speaker sessions.  Deliberately excludes wall-clock fields and traffic
   counters, so same-seed runs render it byte for byte. *)
let render_state net =
  let buf = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  List.iter
    (fun asn ->
      match Network.router net asn with
      | None -> ()
      | Some r ->
        add "router %a up=%b\n" Net.Asn.pp asn (Engine.Node.is_up (Bgp.Router.node r));
        List.iter
          (fun peer ->
            add "  session %a %s\n" Net.Asn.pp peer
              (Bgp.Session.to_string (Bgp.Router.session_state r peer)))
          (List.sort Net.Asn.compare (Bgp.Router.peer_asns r));
        List.iter
          (fun (p, route) ->
            add "  loc %a %a\n" Net.Ipv4.pp_prefix p (Bgp.Route.pp ~prefix:p) route)
          (Bgp.Router.loc_entries r))
    (Network.asns net);
  List.iter
    (fun asn ->
      match Network.switch net asn with
      | None -> ()
      | Some sw ->
        add "switch %a up=%b fallback=%b\n" Net.Asn.pp asn
          (Engine.Node.is_up (Sdn.Switch.node sw))
          (Sdn.Switch.fallback_active sw);
        List.iter
          (fun (r : Sdn.Flow.rule) ->
            add "  flow %a prio=%d %a\n" Net.Ipv4.pp_prefix r.Sdn.Flow.match_prefix
              (Net.Ipv4.prefix_len r.Sdn.Flow.match_prefix)
              Sdn.Flow.pp_action r.Sdn.Flow.action)
          (Sdn.Flow_table.rules (Sdn.Switch.table sw)))
    (Network.asns net);
  (match Network.controller net with
  | None -> ()
  | Some ctrl ->
    add "controller up=%b\n" (Engine.Node.is_up (Cluster_ctl.Controller.node ctrl));
    List.iter
      (fun prefix ->
        List.iter
          (fun (member, d) ->
            add "  decision %a %a %a\n" Net.Ipv4.pp_prefix prefix Net.Asn.pp member
              Cluster_ctl.As_graph.pp_decision d)
          (Net.Asn.Map.bindings (Cluster_ctl.Controller.decisions_for ctrl prefix)))
      (Cluster_ctl.Controller.known_prefixes ctrl));
  (match Network.speaker net with
  | None -> ()
  | Some sp ->
    Cluster_ctl.Speaker.iter_sessions sp (fun s ->
        add "speaker %a/%a established=%b\n" Net.Asn.pp
          (Cluster_ctl.Speaker.session_member s)
          Net.Asn.pp
          (Cluster_ctl.Speaker.session_neighbor s)
          (Cluster_ctl.Speaker.is_established s)));
  Buffer.contents buf

let state_digest net = Digest.to_hex (Digest.string (render_state net))

(* --- Invariant oracle --------------------------------------------------- *)

type violation = { invariant : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.invariant v.detail

(* I1: no flow rule points at a dead element.  Every Output port of every
   live switch must name a fabric node that is up and reachable over an
   up link — a rule surviving its target's death is exactly the stale
   state the failover machinery must clean up. *)
let check_flow_targets net acc =
  List.fold_left
    (fun acc asn ->
      match Network.switch net asn with
      | None -> acc
      | Some sw ->
        if not (Engine.Node.is_up (Sdn.Switch.node sw)) then acc
        else
          List.fold_left
            (fun acc (r : Sdn.Flow.rule) ->
              let port = Sdn.Flow.out_port r in
              let bad detail = { invariant = "no-stale-flow-rule"; detail } :: acc in
              match Network.asn_of_node net port with
              | None ->
                bad
                  (Fmt.str "%a: rule %a -> non-AS node %d" Net.Asn.pp asn
                     Net.Ipv4.pp_prefix r.Sdn.Flow.match_prefix port)
              | Some target ->
                if not (Network.link_up net asn target) then
                  bad
                    (Fmt.str "%a: rule %a -> %a over a down link" Net.Asn.pp asn
                       Net.Ipv4.pp_prefix r.Sdn.Flow.match_prefix Net.Asn.pp target)
                else if
                  not
                    (match Network.runtime_node net target with
                    | Some n -> Engine.Node.is_up n
                    | None -> false)
                then
                  bad
                    (Fmt.str "%a: rule %a -> crashed node %a" Net.Asn.pp asn
                       Net.Ipv4.pp_prefix r.Sdn.Flow.match_prefix Net.Asn.pp target)
                else acc)
            acc
            (Sdn.Flow_table.rules (Sdn.Switch.table sw)))
    acc (Network.asns net)

(* I2: RIB contents agree with session state.  A router must hold no
   candidate route learned from a peer whose session is not Established,
   and the controller's external RIB must only cite speaker sessions that
   are established. *)
let check_session_rib net acc =
  let plan = Network.plan net in
  let prefixes = List.map (fun a -> plan.Addressing.origin_prefix a) (Network.asns net) in
  let acc =
    List.fold_left
      (fun acc asn ->
        match Network.router net asn with
        | None -> acc
        | Some r ->
          if not (Engine.Node.is_up (Bgp.Router.node r)) then acc
          else
            List.fold_left
              (fun acc prefix ->
                List.fold_left
                  (fun acc route ->
                    match Bgp.Route.from_peer route with
                    | None -> acc
                    | Some peer ->
                      if Bgp.Router.session_state r peer = Bgp.Session.Established then acc
                      else
                        {
                          invariant = "session-rib-consistency";
                          detail =
                            Fmt.str "%a holds %a from %a but that session is %s" Net.Asn.pp
                              asn Net.Ipv4.pp_prefix prefix Net.Asn.pp peer
                              (Bgp.Session.to_string (Bgp.Router.session_state r peer));
                        }
                        :: acc)
                  acc
                  (Bgp.Router.candidates r prefix))
              acc prefixes)
      acc (Network.asns net)
  in
  match (Network.controller net, Network.speaker net) with
  | Some ctrl, Some sp when Engine.Node.is_up (Cluster_ctl.Controller.node ctrl) ->
    List.fold_left
      (fun acc prefix ->
        List.fold_left
          (fun acc (route : Cluster_ctl.As_graph.exit_route) ->
            let member = route.Cluster_ctl.As_graph.member in
            let neighbor = route.Cluster_ctl.As_graph.neighbor in
            if Cluster_ctl.Speaker.session_established sp ~member ~neighbor then acc
            else
              {
                invariant = "session-rib-consistency";
                detail =
                  Fmt.str "controller RIB cites down session %a/%a for %a" Net.Asn.pp
                    member Net.Asn.pp neighbor Net.Ipv4.pp_prefix prefix;
              }
              :: acc)
          acc
          (Cluster_ctl.Controller.rib_routes ctrl prefix))
      acc
      (Cluster_ctl.Controller.known_prefixes ctrl)
  | _ -> acc

(* I3: packets never cycle, and the static forwarding verifier holds.
   The compiled data-plane snapshot of the forwarding state must
   (a) report no forwarding cycles and (b) classify every (src, dst)
   pair exactly as the event-driven reference walker does — the fast
   path summarizing the network must forward like it.  Blackholes are
   legal (a prefix may be unreachable mid-recovery); loops never are. *)
let check_fwd_verify net acc =
  let acc =
    List.fold_left
      (fun acc issue ->
        { invariant = "fwd-verify-loop"; detail = Fmt.str "%a" Fwd_verify.pp_issue issue }
        :: acc)
      acc
      (Fwd_verify.loops (Fwd_verify.verify net))
  in
  List.fold_left
    (fun acc d ->
      {
        invariant = "fwd-verify-agreement";
        detail = Fmt.str "%a" Fwd_verify.pp_disagreement d;
      }
      :: acc)
    acc (Fwd_verify.differential net)

let check_invariants net =
  [] |> check_flow_targets net |> check_session_rib net |> check_fwd_verify net |> List.rev

(* --- One run ------------------------------------------------------------ *)

type run_result = {
  schedule : schedule;
  quiesced : bool;
  violations : violation list;
  digest : string;
  flight : string list;
      (* causal flight-recorder dump, non-empty only when invariants fired *)
}

let config_for ~fallback =
  if fallback then Config.failure_test
  else { Config.failure_test with Config.switch_liveness = None }

(* Execute one schedule: build, converge, inject, let every fault heal,
   wait for control-plane quiet, then interrogate the invariants. *)
let execute ?(fallback = true) ?(spec = default_spec ()) ~seed (schedule : schedule) =
  let net =
    Network.create ~config:(config_for ~fallback) ~seed:(mix seed schedule.index) spec
  in
  let conv = Convergence.attach net in
  Network.start net;
  List.iter (fun a -> Scenario.apply net (Scenario.Announce (a, None))) (Network.asns net);
  List.iter (apply_fault net) schedule.events;
  let last_heal =
    List.fold_left
      (fun acc e -> Engine.Time.max acc e.heal_at)
      (Engine.Time.sec 10) schedule.events
  in
  Network.run_until net (Engine.Time.add last_heal (Engine.Time.sec 10));
  let quiesced =
    match
      Convergence.wait_quiet ~quiet:(Engine.Time.sec 5) ~max_wait:(Engine.Time.sec 180)
        conv
    with
    | `Quiet _ -> true
    | `Timeout _ -> false
  in
  let violations =
    (if quiesced then []
     else
       [ { invariant = "quiescence"; detail = "control plane still changing after 180 s" } ])
    @ check_invariants net
  in
  (* A violation auto-dumps the causal flight recorder: the ring holds
     the newest spans, i.e. the causal history leading into the bad
     state.  Deterministic (simulated time only), so including it in
     rendered reports keeps campaign digests seed-stable. *)
  let flight =
    if violations = [] then []
    else Engine.Causal.flight_lines (Engine.Sim.causal (Network.sim net))
  in
  { schedule; quiesced; violations; digest = state_digest net; flight }

let run_one ?fallback ?(spec = default_spec ()) ~seed index =
  let rng = Engine.Rng.create (mix seed ((2 * index) + 1)) in
  let schedule = generate ~spec ~rng index in
  execute ?fallback ~spec ~seed schedule

(* --- Greedy schedule minimization --------------------------------------- *)

(* Drop one fault at a time, keeping the removal whenever the shrunken
   schedule still violates an invariant; the result is a locally minimal
   reproducer (every remaining fault is necessary). *)
let minimize ?fallback ?spec ~seed (schedule : schedule) =
  let fails events =
    (execute ?fallback ?spec ~seed { schedule with events }).violations <> []
  in
  if not (fails schedule.events) then schedule
  else begin
    let keep = ref schedule.events in
    List.iter
      (fun e ->
        let without = List.filter (fun e' -> e' != e) !keep in
        if fails without then keep := without)
      schedule.events;
    { schedule with events = !keep }
  end

(* --- Campaign ----------------------------------------------------------- *)

type report = {
  seed : int;
  runs : int;
  fallback : bool;
  results : run_result list;
  campaign_digest : string;
}

let render_result r =
  Fmt.str "run %d: faults=[%a] %s violations=%d digest=%s" r.schedule.index
    Fmt.(list ~sep:(any "; ") pp_event)
    r.schedule.events
    (if r.quiesced then "quiet" else "TIMEOUT")
    (List.length r.violations) r.digest
  ^ (match r.violations with
    | [] -> ""
    | vs -> "\n" ^ String.concat "\n" (List.map (Fmt.str "  %a" pp_violation) vs))
  ^
  match r.flight with
  | [] -> ""
  | lines ->
    let n = List.length lines in
    let max_lines = 40 in
    let shown = List.filteri (fun i _ -> i >= n - max_lines) lines in
    Fmt.str "\n  flight recorder (%d span%s, last %d shown):\n" n
      (if n = 1 then "" else "s")
      (List.length shown)
    ^ String.concat "\n" (List.map (fun l -> "    " ^ l) shown)

let render_report r =
  let header =
    Fmt.str "chaos campaign seed=%d runs=%d fallback=%b" r.seed r.runs r.fallback
  in
  let body = List.map render_result r.results in
  let failed =
    List.filter (fun (res : run_result) -> res.violations <> []) r.results
  in
  let summary =
    Fmt.str "violating runs: %d/%d\ncampaign digest: %s" (List.length failed) r.runs
      r.campaign_digest
  in
  String.concat "\n" ((header :: body) @ [ summary ]) ^ "\n"

let run_campaign ?(fallback = true) ?(spec = default_spec ()) ~seed ~runs () =
  let results =
    List.init runs (fun i -> run_one ~fallback ~spec ~seed i)
  in
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map render_result results)))
  in
  { seed; runs; fallback; results; campaign_digest = digest }
