(* hybridsim — command-line front end to the hybrid BGP-SDN emulation
   framework.

     hybridsim sweep -n 16 --runs 10       reproduce the paper's Fig. 2
     hybridsim run --topo clique:16 --sdn 8 --event withdraw
     hybridsim topo --kind ba:30:2 --dot topo.dot
     hybridsim dot -n 8 --sdn 4            component diagram (Fig. 1)
     hybridsim demo                         sub-cluster resilience demo

   [run], [trace], [scale] and every [sweep] row build a run description
   ([Framework.Experiments.t]) and hand it to [Experiments.run]; its
   validation is what rejects a bad --sdn, --ks or fail-over topology. *)

open Cmdliner
module E = Framework.Experiments

let ( let* ) r f = Result.bind r f

(* A command's outcome for [Term.ret]: an [Error] is a usage error (exit 124). *)
let usage = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

(* --- Topology specification parsing: "clique:16", "er:20:0.2", ... ----- *)

let parse_topo ~seed s =
  let rng = Engine.Rng.create seed in
  (* a one-size family: NAME:N with N >= [min] *)
  let sized name n ~min make =
    match int_of_string_opt n with
    | Some n when n >= min -> Ok (make n)
    | _ -> Error (Fmt.str "%s:N with N >= %d" name min)
  in
  (* a dataset file, its path taken verbatim; one that cannot be read is a
     usage error like any other bad spec *)
  let load parse pp_error path =
    match parse path with
    | Ok spec -> Ok spec
    | Error e -> Error (Fmt.str "%a" pp_error e)
    | exception Sys_error msg -> Error msg
  in
  (* only the family name is case-insensitive *)
  let family, args =
    let s = String.trim s in
    match String.index_opt s ':' with
    | Some i ->
      (String.lowercase_ascii (String.sub s 0 i), Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (String.lowercase_ascii s, None)
  in
  match (family, Option.fold ~none:[] ~some:(String.split_on_char ':') args) with
  | "caida-file", _ when Option.is_some args ->
    load Topology.Caida.parse_file Topology.Caida.pp_parse_error (Option.get args)
  | "iplane-file", _ when Option.is_some args ->
    load Topology.Iplane.parse_file Topology.Iplane.pp_parse_error (Option.get args)
  | "clique", [ n ] -> sized "clique" n ~min:2 Topology.Artificial.clique
  | "ring", [ n ] -> sized "ring" n ~min:3 Topology.Artificial.ring
  | "line", [ n ] -> sized "line" n ~min:2 Topology.Artificial.line
  | "star", [ n ] -> sized "star" n ~min:2 Topology.Artificial.star
  | "er", [ n; p ] -> (
    match (int_of_string_opt n, float_of_string_opt p) with
    | Some n, Some p when n >= 2 && p >= 0.0 && p <= 1.0 ->
      Ok (Topology.Random_models.erdos_renyi rng ~n ~p)
    | _ -> Error "er:N:P with N >= 2 and P in [0,1]")
  | "ba", [ n; m ] -> (
    match (int_of_string_opt n, int_of_string_opt m) with
    | Some n, Some m when n > m && m >= 1 -> Ok (Topology.Random_models.barabasi_albert rng ~n ~m)
    | _ -> Error "ba:N:M with N > M >= 1")
  | "waxman", [ n ] -> sized "waxman" n ~min:2 (fun n -> Topology.Random_models.waxman rng ~n)
  | "glp", [ n; m ] -> (
    match (int_of_string_opt n, int_of_string_opt m) with
    | Some n, Some m when n > m && m >= 1 && n >= 3 ->
      Ok (Topology.Random_models.glp rng ~n ~m)
    | _ -> Error "glp:N:M with N > M >= 1, N >= 3")
  | "caida", [] -> Ok (Topology.Caida.generate rng)
  | "iplane", [] -> Ok (Topology.Iplane.generate rng)
  | _ ->
    Error
      "unknown topology; use clique:N, ring:N, line:N, star:N, er:N:P, ba:N:M, glp:N:M, \
       waxman:N, caida, iplane, caida-file:PATH, iplane-file:PATH"

(* [spec] with its last [sdn] ASes centralized, as a run would build it. *)
let centralize spec sdn = E.check (E.describe ~members:(E.Last sdn) (E.Graph spec))

(* --- Common options ------------------------------------------------------ *)

(* An integer option below [min] is a usage error, reported before any run
   starts. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min -> Ok v
    | _ -> Error (`Msg (Fmt.str "expected an integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Fmt.int)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let topo_arg default =
  Arg.(value & opt string default & info [ "topo" ] ~docv:"SPEC" ~doc:"Topology spec.")

let sdn_arg default =
  Arg.(
    value & opt (int_at_least 0) default & info [ "sdn" ] ~docv:"K" ~doc:"SDN member count.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for sweep execution: each (x, seed) run executes on its own domain \
           and results are collected in deterministic order, so output is identical for any \
           N. 0 (default) picks the recommended domain count: one per core, capped at 8 \
           unless the $(b,HYBRIDSIM_JOBS_CAP) environment variable overrides the cap; 1 \
           runs sequentially.")

(* 0 = auto.  Sweeps accept any positive value; domains beyond the core
   count just time-share. *)
let resolve_jobs jobs =
  if jobs < 0 then Error "--jobs must be >= 0 (0 = auto-select the recommended domain count)"
  else Ok (if jobs = 0 then Engine.Pool.recommended_jobs () else jobs)

let mrai_arg =
  Arg.(
    value
    & opt (int_at_least 0) 30
    & info [ "mrai" ] ~docv:"SECONDS" ~doc:"eBGP MinRouteAdvertisementInterval.")

let config_of_mrai mrai =
  Framework.Config.with_mrai Framework.Config.default (Engine.Time.sec mrai)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"PATH"
        ~doc:
          "Write a metrics export: .prom/.txt for Prometheus text, .csv for CSV, anything \
           else for a JSONL timeline.")

let metrics_interval_arg =
  let positive_float =
    let parse s =
      match float_of_string_opt s with
      | Some v when v > 0.0 -> Ok v
      | _ -> Error (`Msg (Fmt.str "expected a positive number of seconds, got %S" s))
    in
    Arg.conv (parse, Fmt.float)
  in
  Arg.(
    value
    & opt positive_float 1.0
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:"Sampling interval (simulated seconds) for the metrics timeline.")

(* Start a telemetry sink on the experiment's sim (None when no output was
   requested). *)
let telemetry_of exp metrics_out interval =
  Option.map
    (fun path ->
      Framework.Telemetry.create
        ~interval:(Engine.Time.of_sec_f interval)
        ~sim:(Framework.Experiment.sim exp) ~path ())
    metrics_out

let finish_telemetry tele =
  Option.iter
    (fun t ->
      match Framework.Telemetry.finish t with
      | Ok n -> Fmt.pr "metrics: %d snapshots written@." n
      | Error msg -> Fmt.epr "metrics: write failed: %s@." msg)
    tele

(* For runs that only expose a final snapshot (no live sim access). *)
let write_snapshot path snap =
  let content =
    match Framework.Telemetry.format_of_path path with
    | Framework.Telemetry.Prometheus -> Engine.Metrics.to_prometheus snap
    | Framework.Telemetry.Jsonl -> Engine.Metrics.to_jsonl snap
    | Framework.Telemetry.Csv -> Engine.Metrics.to_csv snap
  in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  Fmt.pr "metrics: final snapshot written to %s@." path

(* --- sweep ---------------------------------------------------------------- *)

let print_convergence s =
  Fmt.pr "%a@.@.%s@." E.pp_series s (Framework.Visualize.series_to_ascii s);
  (* a one-point sweep (e.g. fig2 at -n 2) has no trend to fit *)
  if List.compare_length_with s.E.points 2 >= 0 then begin
    let intercept, slope, r2 = E.median_trend s in
    Fmt.pr "linear fit of medians: y = %.2f %+.2f*x  r^2=%.3f@." intercept slope r2
  end

(* Run a sweep on [jobs] domains, print it and optionally write its CSV.
   [verify] is the parallel-vs-sequential differential: rerun the sweep
   sequentially (and, when [jobs] is 1, on 2 domains) and require deep
   structural equality. *)
let run_sweep ~jobs ~verify ~csv (build : ?pool:Engine.Pool.t -> unit -> E.sweep_result) =
  let t0 = Unix.gettimeofday () in
  let s =
    if jobs <= 1 then build () else Engine.Pool.with_pool ~jobs (fun pool -> build ~pool ())
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rows =
    match s with
    | E.Convergence_series s ->
      print_convergence s;
      E.series_to_csv s
    | E.Loss_series s ->
      Fmt.pr "%a@." E.pp_loss_series s;
      E.loss_series_to_csv s
  in
  Fmt.pr "jobs: %d  wall: %.2f s@." jobs wall;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc rows);
      Fmt.pr "csv written to %s@." path)
    csv;
  if not verify then Ok ()
  else begin
    let vjobs = max 2 jobs in
    let seq = build () in
    let par =
      if jobs > 1 then s else Engine.Pool.with_pool ~jobs:vjobs (fun pool -> build ~pool ())
    in
    let same =
      match (seq, par) with
      | E.Convergence_series a, E.Convergence_series b -> E.equal_series a b
      | E.Loss_series a, E.Loss_series b -> E.equal_series a b
      | _ -> false
    in
    if same then begin
      Fmt.pr "deterministic: jobs=%d result identical to sequential@." vjobs;
      Ok ()
    end
    else Error (Fmt.str "parallel (jobs=%d) result differs from sequential run" vjobs)
  end

let kind_names (k : E.kind) = String.concat "|" (k.name :: k.aliases)

let find_kind name =
  let name = String.lowercase_ascii (String.trim name) in
  let known = String.concat "|" (List.map kind_names E.kinds) in
  List.find_opt (fun (k : E.kind) -> List.mem name (k.name :: k.aliases)) E.kinds
  |> Option.to_result ~none:(Fmt.str "unknown sweep %S (%s)" name known)

let sweep_cmd =
  let run kind n runs seed mrai per_prefix interval_ms jobs verify csv =
    let result =
      let* jobs = resolve_jobs jobs in
      let* kind = find_kind kind in
      let* () = E.check_n kind n in
      let params = { E.n; seed; config = config_of_mrai mrai; per_prefix; interval_ms } in
      run_sweep ~jobs ~verify ~csv (fun ?pool () -> E.sweep_kind ?pool ?runs kind params)
    in
    usage result
  in
  let kind =
    Arg.(
      value
      & opt string "fig2"
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            (String.concat "; "
               (List.map (fun (k : E.kind) -> Fmt.str "$(b,%s): %s" (kind_names k) k.doc) E.kinds)
            ^ "."))
  in
  let n = Arg.(value & opt int 16 & info [ "n"; "size" ] ~docv:"N" ~doc:"Clique size.") in
  let runs =
    let default (k : E.kind) = Fmt.str "%s %d" k.name k.runs in
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "runs" ] ~docv:"R"
          ~doc:
            (Fmt.str "Runs per point (default: the kind's own — %s)."
               (String.concat ", " (List.map default E.kinds))))
  in
  let per_prefix =
    Arg.(
      value
      & opt (int_at_least 1) 2
      & info [ "per-prefix" ] ~docv:"K"
          ~doc:"Loss sweeps: seeded probe sources per destination prefix.")
  in
  let interval_ms =
    Arg.(
      value
      & opt (int_at_least 1) 100
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Loss sweeps: simulated milliseconds between probe bursts after the failure.")
  in
  let verify =
    Arg.(
      value
      & flag
      & info [ "verify" ]
          ~doc:
            "Differential mode: also run the sweep sequentially and fail unless the \
             parallel result is structurally identical.")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH" ~doc:"Write per-run results as CSV.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run an experiment sweep — the paper's Fig. 2 by default, or one of its variants, \
          or data-plane loss vs centralization — optionally across a pool of worker \
          domains.")
    Term.(
      ret
        (const run $ kind $ n $ runs $ seed_arg $ mrai_arg $ per_prefix $ interval_ms
        $ jobs_arg $ verify $ csv))

(* --- run ------------------------------------------------------------------ *)

(* The run [run] and [trace] describe: the first AS's prefix withdrawn
   (after its announcement) or announced on [topo] with its last [sdn]
   ASes centralized, or the fail-over world on the clique [topo].  Also
   returns the world the run builds. *)
let describe_event ~topo ~sdn ~event ~seed ~config =
  let* spec = parse_topo ~seed topo in
  let on world = E.describe ~members:(E.Last sdn) ~config ~seed world in
  let* d =
    match String.lowercase_ascii event with
    | "withdraw" -> Ok (on (E.Graph spec))
    | "announce" -> Ok { (on (E.Graph spec)) with event = E.Announcement }
    | "failover" -> Ok (on (E.Failover spec))
    | e -> Error (Fmt.str "unknown event %S (withdraw|announce|failover)" e)
  in
  let* world = E.check d in
  Ok (d, world)

let print_event world (d : E.run_result E.t) event =
  Fmt.pr "topology: %s (%d ASes, %d SDN)@." (Topology.Spec.title world)
    (Topology.Spec.node_count world)
    (List.length (Topology.Spec.sdn_asns world));
  Fmt.pr "event: %s at %a@." (String.lowercase_ascii event) Net.Asn.pp d.origin

let event_arg =
  Arg.(value & opt string "withdraw" & info [ "event" ] ~docv:"EVENT"
         ~doc:"withdraw, announce or failover (onto a backup chain off the clique $(b,--topo)).")

let run_cmd =
  let run topo sdn event seed mrai metrics_out metrics_interval =
    let result =
      let* d, world = describe_event ~topo ~sdn ~event ~seed ~config:(config_of_mrai mrai) in
      (* a fail-over run exports its final snapshot, the others a timeline *)
      let timeline = match d.event with E.Fail_link _ -> false | _ -> true in
      let tele = ref None in
      let on_boot exp = if timeline then tele := telemetry_of exp metrics_out metrics_interval in
      let r = E.run ~on_boot d in
      print_event world d event;
      Fmt.pr "convergence=%.3fs changes=%d collector_updates=%d@." r.seconds r.changes
        r.collector_updates;
      if not timeline then
        Fmt.pr "data-plane restoration: mean %.2f s, max %.2f s@." r.restore_mean r.restore_max;
      if timeline then finish_telemetry !tele
      else Option.iter (fun path -> write_snapshot path r.metrics) metrics_out;
      Ok ()
    in
    usage result
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single convergence experiment.")
    Term.(
      ret
        (const run $ topo_arg "clique:16" $ sdn_arg 0 $ event_arg $ seed_arg $ mrai_arg
        $ metrics_out_arg $ metrics_interval_arg))

(* --- topo ----------------------------------------------------------------- *)

let topo_cmd =
  let run kind seed dot_out caida_out =
    match parse_topo ~seed kind with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
      Fmt.pr "%s: %d ASes, %d links, connected=%b, valid=%b@." (Topology.Spec.title spec)
        (Topology.Spec.node_count spec) (Topology.Spec.link_count spec)
        (Topology.Spec.is_connected spec) (Topology.Spec.is_valid spec);
      let degrees =
        List.map (Topology.Spec.degree spec) (Topology.Spec.asns spec)
      in
      let fdeg = List.map float_of_int degrees in
      Fmt.pr "degree: min=%.0f median=%.0f max=%.0f@."
        (List.fold_left Float.min infinity fdeg)
        (Engine.Stats.median fdeg)
        (List.fold_left Float.max 0.0 fdeg);
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Framework.Visualize.spec_to_dot ~with_infrastructure:false spec));
          Fmt.pr "wrote %s@." path)
        dot_out;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc -> output_string oc (Topology.Caida.render spec));
          Fmt.pr "wrote %s (CAIDA serial-1)@." path)
        caida_out;
      `Ok ()
  in
  let kind =
    Arg.(value & opt string "caida" & info [ "kind" ] ~docv:"SPEC" ~doc:"Topology spec.")
  in
  let dot_out =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH" ~doc:"Write Graphviz dot.")
  in
  let caida_out =
    Arg.(value & opt (some string) None
         & info [ "export-caida" ] ~docv:"PATH" ~doc:"Write CAIDA serial-1 text.")
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate or load a topology and describe it.")
    Term.(ret (const run $ kind $ seed_arg $ dot_out $ caida_out))

(* --- dot ------------------------------------------------------------------- *)

let dot_cmd =
  let run n sdn =
    match centralize (Topology.Artificial.clique n) sdn with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
      print_string (Framework.Visualize.spec_to_dot spec);
      `Ok ()
  in
  let n =
    Arg.(value & opt (int_at_least 2) 8 & info [ "n"; "size" ] ~docv:"N" ~doc:"Clique size.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the experiment component diagram (Fig. 1 equivalent) as dot.")
    Term.(ret (const run $ n $ sdn_arg 4))

(* --- scenario --------------------------------------------------------------- *)

let scenario_cmd =
  let run topo sdn file seed mrai dump timeline show_state metrics_out metrics_interval =
    let result =
      let* spec = parse_topo ~seed topo in
      let* spec = centralize spec sdn in
      let* scenario = Framework.Scenario.parse_file file in
      let config = config_of_mrai mrai in
      let exp = Framework.Experiment.create ~config ~seed spec in
      let* () = Framework.Scenario.validate (Framework.Experiment.network exp) scenario in
      let tele = telemetry_of exp metrics_out metrics_interval in
      Fmt.pr "topology %s (%d ASes, %d SDN); scenario %s (%d steps)@."
        (Topology.Spec.title spec) (Topology.Spec.node_count spec)
        (List.length (Topology.Spec.sdn_asns spec))
        (Framework.Scenario.title scenario)
        (List.length (Framework.Scenario.steps scenario));
      let log = Framework.Scenario.run exp scenario in
      List.iter
        (fun (time, action) ->
          Fmt.pr "  %a %a@." Engine.Time.pp time Framework.Scenario.pp_action action)
        log;
      let network = Framework.Experiment.network exp in
      let collector = Framework.Network.collector network in
      Fmt.pr "settled at %a; collector saw %d updates@." Engine.Time.pp
        (Framework.Experiment.now exp)
        (Bgp.Collector.event_count collector);
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Bgp.Collector.dump collector));
          Fmt.pr "collector dump written to %s@." path)
        dump;
      if show_state then print_string (Framework.Looking_glass.network_state network);
      Option.iter
        (fun prefix ->
          print_string (Framework.Visualize.timeline (Framework.Experiment.watcher exp) prefix))
        timeline;
      finish_telemetry tele;
      Ok ()
    in
    usage result
  in
  let file =
    Arg.(required & opt (some file) None & info [ "file" ] ~docv:"PATH" ~doc:"Scenario file.")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump-collector" ] ~docv:"PATH" ~doc:"Write the collector's update dump.")
  in
  (* parsed with the other options, so a bad prefix is a usage error
     before anything runs *)
  let prefix =
    let parse s =
      match Net.Ipv4.prefix_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Fmt.str "expected an IPv4 prefix such as 10.0.0.0/8, got %S" s))
    in
    Arg.conv (parse, Net.Ipv4.pp_prefix)
  in
  let timeline =
    Arg.(value & opt (some prefix) None
         & info [ "timeline" ] ~docv:"PREFIX" ~doc:"Print the route-change timeline of a prefix.")
  in
  let show_state =
    Arg.(value & flag & info [ "show-state" ] ~doc:"Dump the final looking-glass state.")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Replay a timed scenario file against a topology.")
    Term.(
      ret
        (const run $ topo_arg "clique:8" $ sdn_arg 0 $ file $ seed_arg $ mrai_arg $ dump $ timeline
        $ show_state $ metrics_out_arg $ metrics_interval_arg))

(* --- metrics ----------------------------------------------------------------- *)

let metrics_cmd =
  let run check =
    match check with
    | None -> `Error (true, "nothing to do; use --check FILE")
    | Some path -> (
      match Framework.Telemetry.validate_file path with
      | Ok n ->
        Fmt.pr "%s: OK — %d entries (%s format)@." path n
          (Framework.Telemetry.format_to_string (Framework.Telemetry.format_of_path path));
        `Ok ()
      | Error msg -> `Error (false, Fmt.str "%s: %s" path msg))
  in
  let check =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"PATH"
          ~doc:"Validate a metrics export (format inferred from the extension).")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Inspect and validate metrics export files.")
    Term.(ret (const run $ check))

(* --- trace ------------------------------------------------------------------- *)

(* Chrome trace-event files are a single JSON object with a "traceEvents"
   array; JSONL exports are one object per line.  Both are checked with
   the same self-contained JSON validator the metrics formats use. *)
let validate_trace_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if Filename.check_suffix (String.lowercase_ascii path) ".jsonl" then begin
    let lines =
      String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
    in
    match List.find_index (fun l -> not (Framework.Telemetry.json_valid (String.trim l))) lines with
    | Some i -> Error (Fmt.str "line %d: invalid JSON" (i + 1))
    | None -> Ok (List.length lines)
  end
  else begin
    let body = String.trim text in
    if not (Framework.Telemetry.json_valid body) then Error "invalid JSON"
    else begin
      (* Count the events so "OK" reports something useful. *)
      let occurrences sub =
        let n = String.length sub and total = ref 0 in
        for i = 0 to String.length body - n do
          if String.sub body i n = sub then incr total
        done;
        !total
      in
      if occurrences "\"traceEvents\"" = 0 then
        Error "missing \"traceEvents\" array (not a Chrome trace-event file)"
      else Ok (occurrences "\"ph\":")
    end
  end

let trace_cmd =
  let run topo sdn event seed mrai out critical check =
    match check with
    | Some path -> (
      match validate_trace_file path with
      | Ok n ->
        Fmt.pr "%s: OK — %d events@." path n;
        `Ok ()
      | Error msg -> `Error (false, Fmt.str "%s: %s" path msg))
    | None -> (
      let result =
        let config =
          { (config_of_mrai mrai) with Framework.Config.causal = Engine.Causal.Full }
        in
        let* d, world = describe_event ~topo ~sdn ~event ~seed ~config in
        let exp = ref None in
        let r = E.run ~on_boot:(fun e -> exp := Some e) d in
        let exp = Option.get !exp in
        let causal = Engine.Sim.causal (Framework.Experiment.sim exp) in
        print_event world d event;
        Fmt.pr "convergence: %.6f s@." r.seconds;
        Fmt.pr "trace: id=%d, %d spans@." (Engine.Causal.trace_id causal)
          (Engine.Causal.total causal);
        let prefix = Framework.Experiment.default_prefix exp d.origin in
        let label = Net.Ipv4.prefix_to_string prefix in
        (match Engine.Causal.convergence_leaf ~label causal with
        | None -> Fmt.pr "no data-plane write found for %s@." label
        | Some leaf ->
          let a = Engine.Causal.attribute causal leaf in
          Fmt.pr "@[<v>%a@]@." Engine.Causal.pp_attribution a;
          if critical then
            List.iter
              (fun s -> Fmt.pr "  %s@." (Engine.Causal.render_line s))
              (Engine.Causal.path_to_root causal leaf));
        Option.iter
          (fun path ->
            let content =
              if Filename.check_suffix (String.lowercase_ascii path) ".jsonl" then
                Engine.Causal.to_jsonl causal
              else Engine.Causal.to_chrome causal
            in
            Out_channel.with_open_text path (fun oc -> output_string oc content);
            Fmt.pr "trace: written to %s@." path)
          out;
        Ok ()
      in
      usage result)
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:
            "Write the span export: .jsonl for one span per line, anything else for \
             Chrome trace-event JSON (open in Perfetto or chrome://tracing).")
  in
  let critical =
    Arg.(
      value
      & flag
      & info [ "critical-path" ]
          ~doc:"Also print every span on the convergence critical path.")
  in
  let check =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"PATH"
          ~doc:"Validate a trace export (Chrome JSON or .jsonl) instead of running.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a convergence experiment with full causal tracing: per-seed-deterministic \
          span trees from each action down to the last FIB/flow-table write, a \
          critical-path attribution table, and Perfetto-loadable exports.")
    Term.(
      ret
        (const run $ topo_arg "clique:8" $ sdn_arg 0 $ event_arg $ seed_arg $ mrai_arg $ out $ critical
        $ check))

(* --- export-quagga ----------------------------------------------------------- *)

let export_quagga_cmd =
  let run topo seed dir =
    match parse_topo ~seed topo with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
      Framework.Quagga_conf.write_configs spec ~dir;
      Fmt.pr "wrote %d bgpd configs to %s/@." (Topology.Spec.node_count spec) dir;
      `Ok ()
  in
  let dir =
    Arg.(value & opt string "quagga-configs" & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "export-quagga"
       ~doc:"Generate Quagga/FRR bgpd.conf files for a topology (real-testbed export).")
    Term.(ret (const run $ topo_arg "clique:8" $ seed_arg $ dir))

(* --- demo ------------------------------------------------------------------ *)

let demo_cmd =
  let run seed =
    let r = Framework.Experiments.subcluster_resilience ~seed () in
    Fmt.pr "Disjoint sub-cluster demo: two SDN islands bridged by one intra-cluster link,@.";
    Fmt.pr "with legacy ASes providing an alternative path between them.@.@.";
    Fmt.pr "  connectivity before the split:     %b@." r.Framework.Experiments.reachable_before;
    Fmt.pr "  intra-cluster bridge fails...@.";
    Fmt.pr "  connectivity after the split:      %b@."
      r.Framework.Experiments.reachable_after_split;
    Fmt.pr "  traffic crossed the legacy world:  %b@."
      r.Framework.Experiments.used_legacy_bridge;
    Fmt.pr "  bridge recovers...@.";
    Fmt.pr "  connectivity after recovery:       %b@."
      r.Framework.Experiments.reachable_after_recovery
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the disjoint sub-cluster resilience demo.")
    Term.(const run $ seed_arg)

let chaos_cmd =
  let run seed runs no_fallback minimize =
    let fallback = not no_fallback in
    let report = Framework.Chaos.run_campaign ~fallback ~seed ~runs () in
    print_string (Framework.Chaos.render_report report);
    let failing =
      List.filter
        (fun (r : Framework.Chaos.run_result) ->
          r.Framework.Chaos.violations <> [] || not r.Framework.Chaos.quiesced)
        report.Framework.Chaos.results
    in
    if minimize then
      List.iter
        (fun (r : Framework.Chaos.run_result) ->
          let s = Framework.Chaos.minimize ~fallback ~seed r.Framework.Chaos.schedule in
          Fmt.pr "minimal reproducer for run %d: %a@."
            r.Framework.Chaos.schedule.Framework.Chaos.index
            Fmt.(list ~sep:(any "; ") Framework.Chaos.pp_event)
            s.Framework.Chaos.events)
        failing;
    if failing <> [] then exit 1
  in
  let runs =
    Arg.(
      value
      & opt (int_at_least 1) 25
      & info [ "runs" ] ~docv:"R" ~doc:"Fault schedules to generate and execute.")
  in
  let no_fallback =
    Arg.(
      value
      & flag
      & info [ "no-fallback" ]
          ~doc:
            "Disable the switches' legacy fallback mode (the pre-hardening behavior: \
             members blackhole unknown traffic while the controller is down).")
  in
  let minimize =
    Arg.(
      value
      & flag
      & info [ "minimize" ]
          ~doc:"Greedily shrink each failing schedule to a minimal reproducer.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos campaign: randomized fault schedules against the hybrid \
          clique, with an invariant oracle (no stale flow rules, session/RIB \
          consistency, a loop-free data plane that agrees with the reference walker) at \
          every quiescent point.  Output is bit-identical for a given seed.")
    Term.(const run $ seed_arg $ runs $ no_fallback $ minimize)

(* --- scale ---------------------------------------------------------------- *)

let scale_cmd =
  let run tier1 tier2 stubs prefixes ks runs seed mrai jobs single budget csv =
    let result =
      let* jobs = resolve_jobs jobs in
      let ases = tier1 + tier2 + stubs in
      let* () =
        if ases > Framework.Addressing.max_ases then
          Error
            (Fmt.str
               "--tier1 + --tier2 + --stubs is %d, but the address plan covers at most %d ASes"
               ases Framework.Addressing.max_ases)
        else Ok ()
      in
      let config = config_of_mrai mrai in
      let world = E.caida_world ~tier1 ~tier2 ~stubs ~seed in
      (* the placement:top-degree run, its origin the first stub, behind
         the load *)
      let describe ~k ~seed =
        {
          (E.describe ~members:(E.Placed (E.Top_degree, k)) ~origin:(List.hd world.stub_asns)
             ~config ~seed (E.Graph world.spec))
          with
          measure = E.Scale { origins = world.stub_asns; prefixes; budget; clock = Unix.gettimeofday };
        }
      in
      let* _ =
        List.fold_left (fun ok k -> Result.bind ok (fun _ -> E.check (describe ~k ~seed))) (Ok world.spec) ks
        |> Result.map_error (( ^ ) "--ks: ")
      in
      let scale ~k ~seed = E.run (describe ~k ~seed) in
      if single then begin
        let k = match ks with k :: _ -> k | [] -> 0 in
        let live_words () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        let before = live_words () in
        (* Everything but the heap figures is printed while the result is
           held; the result (its telemetry snapshot included) is dropped
           before the words the run left behind are counted. *)
        let live, peak, built =
          let r = scale ~k ~seed in
          Fmt.pr "graph:           %d ASes (%d tier1, %d tier2, %d stubs), %d links@."
            ases tier1 tier2 stubs
            (Topology.Spec.link_count world.E.spec);
          Fmt.pr "centralized:     %d top-degree members@." k;
          Fmt.pr
            "load:            %d prefixes, %d collector updates in %.2f s wall (%.0f upd/s)@."
            prefixes r.E.load_updates r.E.load_seconds
            (float_of_int r.E.load_updates /. r.E.load_seconds);
          Fmt.pr "load settled:    %b (budget %d events)@." r.E.load_settled budget;
          Fmt.pr "tables:          %d Loc-RIB routes, %d Adj-RIB-In routes, %d distinct attrs@."
            r.E.rib_routes r.E.adj_in_routes r.E.distinct_attrs;
          Fmt.pr "withdrawal:      Tdown = %.2f s, %d changes, %d collector updates@."
            r.E.withdrawal.E.seconds r.E.withdrawal.E.changes
            r.E.withdrawal.E.collector_updates;
          (r.E.live_words, r.E.peak_words, r.E.built_words_per_as)
        in
        let left = live_words () - before in
        (* the world was live at [before] too *)
        ignore (Sys.opaque_identity world);
        Fmt.pr
          "heap:            %d live words, %d peak words, %.0f words per AS built, %d words \
           left after the run@."
          live peak built left;
        Ok ()
      end
      else
        (* the placement:top-degree grid on this world: runs take the
           seed after the world's *)
        let label = Fmt.str "scale-caida%d-p%d" ases prefixes in
        run_sweep ~jobs ~verify:false ~csv (fun ?pool () ->
            E.Convergence_series
              (E.sweep ?pool ~label ~runs ~seed:(seed + 1) (List.map float_of_int ks)
                 (fun ~x ~seed -> (scale ~k:(int_of_float x) ~seed).E.withdrawal)))
    in
    usage result
  in
  let count name default doc =
    Arg.(value & opt (int_at_least 1) default & info [ name ] ~docv:"N" ~doc)
  in
  let tier1 = count "tier1" 4 "Tier-1 clique size." in
  let tier2 = count "tier2" 24 "Transit AS count." in
  let stubs = count "stubs" 72 "Stub AS count." in
  let prefixes =
    Arg.(
      value
      & opt (int_at_least 1) 200
      & info [ "prefixes" ] ~docv:"P"
          ~doc:"Load prefixes, spread round-robin across the stubs before measuring.")
  in
  let ks =
    Arg.(
      value
      & opt (list int) [ 0; 8; 16; 24 ]
      & info [ "ks" ] ~docv:"K,K,..."
          ~doc:
            "Centralized member counts to sweep (top-degree placement), each between 0 and \
             the AS count minus one.")
  in
  let runs =
    Arg.(value & opt (int_at_least 1) 3 & info [ "runs" ] ~docv:"R" ~doc:"Runs per point.")
  in
  let single =
    Arg.(
      value
      & flag
      & info [ "single" ]
          ~doc:
            "Run one detailed stress run (first value of $(b,--ks) as the member count) and \
             report throughput, table sizes and heap figures instead of the sweep.")
  in
  let budget =
    Arg.(
      value
      & opt (int_at_least 1) 20_000_000
      & info [ "budget" ] ~docv:"EVENTS"
          ~doc:
            "Event budget for the load phase (and each measured phase); bounds peak memory \
             and host time at Internet scale.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the sweep as CSV.")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Internet-scale stress: on one synthetic CAIDA graph generated from $(b,--seed), \
          load prefixes across its stubs, then sweep withdrawal convergence vs centralized \
          member count (the placement:top-degree run; runs take the seeds after the \
          graph's).  With $(b,--single), one detailed run at $(b,--seed) reporting update \
          throughput, RIB sizes and heap usage.")
    Term.(
      ret
        (const run $ tier1 $ tier2 $ stubs $ prefixes $ ks $ runs $ seed_arg $ mrai_arg
        $ jobs_arg $ single $ budget $ csv))

let version = "1.0.0"

let () =
  let doc = "hybrid BGP-SDN emulation framework" in
  let info = Cmd.info "hybridsim" ~version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            sweep_cmd;
            run_cmd;
            topo_cmd;
            dot_cmd;
            scenario_cmd;
            export_quagga_cmd;
            demo_cmd;
            chaos_cmd;
            metrics_cmd;
            trace_cmd;
            scale_cmd;
          ]))
