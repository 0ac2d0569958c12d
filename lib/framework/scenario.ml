(* Declarative experiment scenarios: a list of timed actions replayed
   against a network — the one vocabulary for timed network events, used
   by scenario files, chaos campaigns and the churn experiment alike. *)

type action =
  | Announce of Net.Asn.t * Net.Ipv4.prefix option (* None = the AS's default prefix *)
  | Withdraw of Net.Asn.t * Net.Ipv4.prefix option
  | Fail_link of Net.Asn.t * Net.Asn.t
  | Recover_link of Net.Asn.t * Net.Asn.t
  | Crash_node of Net.Asn.t
  | Restart_node of Net.Asn.t
  | Partition of Net.Asn.t * Net.Asn.t option
      (* cut the link to another AS, or (None) the member's control channel *)
  | Recover_ctrl of Net.Asn.t (* bring a member's control channel back *)
  | Flap of Net.Asn.t * Net.Asn.t * int (* n fail/recover cycles, 1 s period *)
  | Loss_burst of Net.Asn.t * Net.Asn.t (* 100% loss, link still up *)
  | Loss_heal of Net.Asn.t * Net.Asn.t (* restore the pre-burst loss *)
  | Crash_head (* the cluster head: controller + speaker *)
  | Restart_head
  | Heal (* bring every failed link back up *)
  | Note of string

type step = { at : Engine.Time.t; action : action }

type t = { title : string; steps : step list }

let make ~title steps =
  let sorted = List.stable_sort (fun a b -> Engine.Time.compare a.at b.at) steps in
  { title; steps = sorted }

let at seconds action = { at = Engine.Time.of_sec_f seconds; action }

let title t = t.title

let steps t = t.steps

(* --- Text format ----------------------------------------------------------

   One action per line, '#' comments:

     @0.5  announce AS65001
     @2.0  announce AS65002 100.99.0.0/24
     @10.0 fail-link AS65001 AS65002
     @12.0 loss-burst AS65002 AS65003
     @15.0 crash AS65003
     @17.0 crash-head
     @18.0 restart AS65003
     @20.0 recover-link AS65001 AS65002
     @30.0 withdraw AS65001
     @31.0 note measurement window ends

   This is the file format `hybridsim scenario` replays; the printer
   below writes exactly this syntax, so logs are valid scenario lines. *)

let pp_action ppf = function
  | Announce (asn, p) ->
    Fmt.pf ppf "announce %a%a" Net.Asn.pp asn Fmt.(option (any " " ++ Net.Ipv4.pp_prefix)) p
  | Withdraw (asn, p) ->
    Fmt.pf ppf "withdraw %a%a" Net.Asn.pp asn Fmt.(option (any " " ++ Net.Ipv4.pp_prefix)) p
  | Fail_link (a, b) -> Fmt.pf ppf "fail-link %a %a" Net.Asn.pp a Net.Asn.pp b
  | Recover_link (a, b) -> Fmt.pf ppf "recover-link %a %a" Net.Asn.pp a Net.Asn.pp b
  | Crash_node asn -> Fmt.pf ppf "crash %a" Net.Asn.pp asn
  | Restart_node asn -> Fmt.pf ppf "restart %a" Net.Asn.pp asn
  | Partition (a, Some b) -> Fmt.pf ppf "partition %a %a" Net.Asn.pp a Net.Asn.pp b
  | Partition (a, None) -> Fmt.pf ppf "partition %a ctrl" Net.Asn.pp a
  | Recover_ctrl a -> Fmt.pf ppf "recover-ctrl %a" Net.Asn.pp a
  | Flap (a, b, n) -> Fmt.pf ppf "flap %a %a %d" Net.Asn.pp a Net.Asn.pp b n
  | Loss_burst (a, b) -> Fmt.pf ppf "loss-burst %a %a" Net.Asn.pp a Net.Asn.pp b
  | Loss_heal (a, b) -> Fmt.pf ppf "loss-heal %a %a" Net.Asn.pp a Net.Asn.pp b
  | Crash_head -> Fmt.string ppf "crash-head"
  | Restart_head -> Fmt.string ppf "restart-head"
  | Heal -> Fmt.string ppf "heal"
  | Note s -> Fmt.pf ppf "note %s" s

let pp_step ppf s = Fmt.pf ppf "@%.6f %a" (Engine.Time.to_sec_f s.at) pp_action s.action

let render t =
  String.concat ""
    (Fmt.str "# scenario: %s\n" t.title :: List.map (Fmt.str "%a\n" pp_step) t.steps)

(* Seconds as written in a file, to the nearest microsecond (rounding,
   not truncation, so every rendered time parses back exactly). *)
let parse_time s =
  match float_of_string_opt s with
  | Some sec when Float.is_finite sec && sec >= 0.0 && sec *. 1e6 < Float.of_int max_int ->
    Ok (Engine.Time.of_us (Float.to_int (Float.round (sec *. 1e6))))
  | _ -> Error (Fmt.str "bad time %S (want finite, non-negative seconds)" s)

let ( let* ) = Result.bind

let parse_action verb args =
  let asn s =
    match Net.Asn.of_string s with Some a -> Ok a | None -> Error "bad or missing AS number"
  in
  let prefix s =
    match Net.Ipv4.prefix_of_string s with
    | Some p -> Ok p
    | None -> Error (Fmt.str "bad prefix %S" s)
  in
  let origin make = function
    | [ a ] ->
      let* a = asn a in
      Ok (make a None)
    | [ a; p ] ->
      let* a = asn a in
      let* p = prefix p in
      Ok (make a (Some p))
    | _ -> Error (Fmt.str "expected: %s AS [prefix]" verb)
  in
  let one make = function
    | [ a ] ->
      let* a = asn a in
      Ok (make a)
    | _ -> Error (Fmt.str "expected: %s AS" verb)
  in
  let two make = function
    | [ a; b ] ->
      let* a = asn a in
      let* b = asn b in
      Ok (make a b)
    | _ -> Error (Fmt.str "expected: %s AS AS" verb)
  in
  let none action = function
    | [] -> Ok action
    | _ -> Error (Fmt.str "%s takes no arguments" verb)
  in
  match verb with
  | "announce" -> origin (fun a p -> Announce (a, p)) args
  | "withdraw" -> origin (fun a p -> Withdraw (a, p)) args
  | "fail-link" -> two (fun a b -> Fail_link (a, b)) args
  | "recover-link" -> two (fun a b -> Recover_link (a, b)) args
  | "crash" -> one (fun a -> Crash_node a) args
  | "restart" -> one (fun a -> Restart_node a) args
  | "partition" -> (
    match args with
    | [ a; b ] when String.lowercase_ascii b = "ctrl" ->
      let* a = asn a in
      Ok (Partition (a, None))
    | [ _; _ ] -> two (fun a b -> Partition (a, Some b)) args
    | _ -> Error "expected: partition AS (AS|ctrl)")
  | "recover-ctrl" -> one (fun a -> Recover_ctrl a) args
  | "flap" -> (
    match args with
    | [ a; b; n ] -> (
      let* a = asn a in
      let* b = asn b in
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (Flap (a, b, n))
      | _ -> Error (Fmt.str "bad flap count %S" n))
    | _ -> Error "expected: flap AS AS COUNT")
  | "loss-burst" -> two (fun a b -> Loss_burst (a, b)) args
  | "loss-heal" -> two (fun a b -> Loss_heal (a, b)) args
  | "crash-head" -> none Crash_head args
  | "restart-head" -> none Restart_head args
  | "heal" -> none Heal args
  | "note" -> Ok (Note (String.concat " " args))
  | other -> Error (Fmt.str "unknown action %S" other)

let parse_line lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    let step =
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | time :: verb :: args when String.length time > 1 && time.[0] = '@' ->
        let* at = parse_time (String.sub time 1 (String.length time - 1)) in
        let* action = parse_action (String.lowercase_ascii verb) args in
        Ok (Some { at; action })
      | _ -> Error "expected: @SECONDS ACTION ..."
    in
    Result.map_error (Fmt.str "line %d: %s" lineno) step

let parse_string ?(title = "scenario") text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (make ~title (List.rev acc))
    | line :: rest -> (
      match parse_line lineno line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some step) -> go (lineno + 1) (step :: acc) rest
      | Error e -> Error e)
  in
  go 1 [] lines

let parse_file path =
  match Topology.Text_file.read path with
  | text -> parse_string ~title:(Filename.basename path) text
  | exception Sys_error msg -> Error msg

(* --- Execution -------------------------------------------------------------- *)

(* Does the step name only things the network has?  Checked for every
   step before any is scheduled, so a bad file fails up front instead of
   mid-run. *)
let check_step net step =
  let as_ a =
    if Topology.Spec.mem (Network.spec net) a then Ok ()
    else Error (Fmt.str "%a is not in the topology" Net.Asn.pp a)
  in
  let link a b =
    let* () = as_ a in
    let* () = as_ b in
    if Option.is_some (Network.link_delay net a b) then Ok ()
    else Error (Fmt.str "no link %a-%a" Net.Asn.pp a Net.Asn.pp b)
  in
  let member a =
    let* () = as_ a in
    if List.exists (Net.Asn.equal a) (Network.sdn_asns net) then Ok ()
    else Error (Fmt.str "%a has no control channel (not an SDN member)" Net.Asn.pp a)
  in
  let head () =
    if Option.is_some (Network.controller net) then Ok ()
    else Error "no cluster head (the topology has no SDN members)"
  in
  let checked =
    match step.action with
    | Announce (a, _) | Withdraw (a, _) | Crash_node a | Restart_node a -> as_ a
    | Flap (_, _, n) when n <= 0 -> Error "a flap needs at least one cycle"
    | Fail_link (a, b)
    | Recover_link (a, b)
    | Partition (a, Some b)
    | Flap (a, b, _)
    | Loss_burst (a, b)
    | Loss_heal (a, b) ->
      link a b
    | Partition (a, None) | Recover_ctrl a -> member a
    | Crash_head | Restart_head -> head ()
    | Heal | Note _ -> Ok ()
  in
  Result.map_error (Fmt.str "scenario step \"%a\": %s" pp_step step) checked

let validate net t =
  List.fold_left (fun acc step -> Result.bind acc (fun () -> check_step net step)) (Ok ())
    t.steps

(* The one dispatcher from actions to the network: everything that runs
   a scenario step, a chaos fault or a churn cycle ends here. *)
let apply net action =
  let prefix_for asn = function
    | Some p -> p
    | None -> (Network.plan net).Addressing.origin_prefix asn
  in
  match action with
  | Announce (asn, p) -> Network.originate net asn (prefix_for asn p)
  | Withdraw (asn, p) -> Network.withdraw net asn (prefix_for asn p)
  | Fail_link (a, b) | Partition (a, Some b) -> Network.fail_link net a b
  | Recover_link (a, b) -> Network.recover_link net a b
  | Crash_node asn -> Network.crash_node net asn
  | Restart_node asn -> Network.restart_node net asn
  | Partition (a, None) -> Network.fail_ctrl_link net a
  | Recover_ctrl a -> Network.recover_ctrl_link net a
  | Loss_burst (a, b) -> Network.start_loss_burst net a b
  | Loss_heal (a, b) -> Network.end_loss_burst net a b
  | Crash_head -> Network.crash_controller net
  | Restart_head -> Network.restart_controller net
  | Heal -> Network.heal_all_links net
  | Note _ -> ()
  | Flap _ -> invalid_arg "Scenario.apply: a flap is a train of steps (see Scenario.expand)"

(* A flap is n fail/recover cycles on a 1 s period: down for 500 ms, up
   for 500 ms (the last recovery leaves the link up).  Every other step
   is its own single primitive. *)
let expand step =
  match step.action with
  | Flap (a, b, n) ->
    List.concat
      (List.init n (fun i ->
           let base = Engine.Time.add step.at (Engine.Time.sec i) in
           [
             { at = base; action = Fail_link (a, b) };
             { at = Engine.Time.add base (Engine.Time.ms 500); action = Recover_link (a, b) };
           ]))
  | _ -> [ step ]

let schedule ?(on_step = ignore) net steps =
  let sim = Network.sim net in
  let at_step time fn = ignore (Engine.Sim.schedule_at ~category:"scenario.step" sim time fn) in
  List.iter
    (fun step ->
      (* A step already in the past runs now, at once. *)
      let late = Engine.Time.(step.at < Engine.Sim.now sim) in
      match expand { step with at = Engine.Time.max step.at (Engine.Sim.now sim) } with
      | [] -> ()
      | first :: rest ->
        let run () =
          on_step step;
          apply net first.action;
          (* The rest of a flap's train is queued only once its first
             fail has run, so same-instant ties keep their order: that
             fail's session-down detection (500 ms by default, like the
             down time) runs before the first recovery. *)
          List.iter (fun prim -> at_step prim.at (fun () -> apply net prim.action)) rest
        in
        (* each step roots its own causal tree *)
        let fire () =
          if Engine.Causal.enabled (Engine.Sim.causal sim) then
            Engine.Sim.with_span sim ~category:"scenario.action"
              ~label:(Fmt.str "%a" pp_action step.action)
              run
          else run ()
        in
        if late then fire () else at_step first.at fire)
    steps

(* Check, schedule every step, then run to quiescence.  Returns the
   executed (time, action) log. *)
let run exp scenario =
  let net = Experiment.network exp in
  (match validate net scenario with Ok () -> () | Error e -> invalid_arg e);
  let log = ref [] in
  schedule net scenario.steps ~on_step:(fun step ->
      log := (Network.now net, step.action) :: !log);
  ignore (Network.settle net);
  List.rev !log
