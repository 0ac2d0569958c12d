(* The repository benchmark harness.  See README.md in this directory.

     main.exe --workload W --seed S --seconds T --trace 0|1 [--smoke]
         one measured window of one workload; the last stdout line is the
         JSON result (end-to-end metrics untraced, the per-layer ledger
         traced)
     main.exe --reps N [--seed S] [--seconds T] [--smoke] --out FILE
         a set: N untraced reps of every workload, round-robin, plus one
         traced rep each, every one in a fresh child process
     main.exe --compare PARENT.json CHANGE.json ...   verdict per row
     main.exe --check FILE              gates of a set file
     main.exe --list                    workloads and metrics
     main.exe --check-manifest BENCHMARK.json *)

open Workloads

let default_golden = "bench_results/fig2-withdrawal-clique16.csv"

(* --- One measured window ---------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  fingerprint : string;
  metrics : (string * float) list;
}

let run_once ?(probe = false) w mode ctx k =
  let r = new_run ~probe in
  let m0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Unix.gettimeofday () in
  match w.run r mode ctx k with
  | () ->
    Ok
      {
        Ledger.run = r;
        seconds = Unix.gettimeofday () -. t0;
        minor_words = Gc.minor_words () -. m0;
        major_collections = (Gc.quick_stat ()).Gc.major_collections - g0;
      }
  | exception Gate msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let profiled = { profile = true; causal = None }

let no_ring = { profile = false; causal = Some Engine.Causal.Disabled }

(* Repeat the pass until starting another run would overrun [seconds];
   always the probe pass and one timed pass.  Traced windows run each
   slot three ways (untraced, profiled, causal ring off), rotating the
   order. *)
let measure w ~size ~seed ~seconds ~trace ~golden =
  let ctx = { size; seed; golden } in
  let pass = w.pass size in
  let attempted = ref 0 and failed = ref 0 in
  let fail k msg =
    incr failed;
    Printf.eprintf "%s slot %d: %s\n%!" w.name k msg
  in
  let seen = Hashtbl.create 64 in
  let modes = if trace then [ plain; profiled; no_ring ] else [ plain ] in
  let windows = List.map (fun m -> (m, Ledger.new_window ())) modes in
  let record mode k =
    incr attempted;
    let window = List.assq mode windows in
    match run_once ~probe:(not (Ledger.has window k)) w mode ctx k with
    | Error msg -> fail k msg
    | Ok s -> (
      let fp = fingerprint s.Ledger.run in
      match Hashtbl.find_opt seen k with
      | Some fp' when fp' <> fp -> fail k (Printf.sprintf "nondeterministic: %s then %s" fp' fp)
      | _ ->
        Hashtbl.replace seen k fp;
        Ledger.add window k s)
  in
  let nm = List.length modes in
  let t0 = Unix.gettimeofday () in
  let rec loop k last =
    let elapsed = Unix.gettimeofday () -. t0 in
    if k < 2 * pass || elapsed +. last <= seconds then begin
      List.iteri (fun i _ -> record (List.nth modes ((i + k) mod nm)) (k mod pass)) modes;
      loop (k + 1) (Unix.gettimeofday () -. t0 -. elapsed)
    end
  in
  loop 0 0.0;
  let fingerprint =
    List.init pass (fun k -> Option.value ~default:"failed" (Hashtbl.find_opt seen k))
    |> String.concat "|" |> Digest.string |> Digest.to_hex
  in
  (* Replay the slots the committed data pins, unless this window ran them. *)
  if seed <> golden_seed then
    List.iter
      (fun k ->
        incr attempted;
        match run_once w plain { ctx with seed = golden_seed } k with
        | Ok _ -> ()
        | Error msg -> fail k ("at the golden seed: " ^ msg))
      (w.golden_slots size);
  let window m = List.assq m windows in
  let metrics =
    if List.exists (fun (_, w) -> Ledger.timed_slots w < pass) windows then []
    else if trace then
      Ledger.per_layer_values ~plain:(window plain) ~profiled:(window profiled) ~no_ring:(window no_ring)
    else Ledger.end_to_end_values (window plain)
  in
  { attempted = !attempted; failed = !failed; fingerprint; metrics }

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) -> (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let run_window ~name ~size ~seed ~seconds ~trace ~golden_path =
  match find name with
  | None ->
    Printf.eprintf "unknown workload %S (see --list)\n" name;
    exit 2
  | Some w ->
    (* An unreadable file leaves the table empty, which fails fig2's gate. *)
    let golden = try load_golden golden_path with Sys_error _ | Failure _ -> Hashtbl.create 1 in
    let o = measure w ~size ~seed ~seconds ~trace ~golden in
    let specs = if trace then Ledger.per_layer else Ledger.end_to_end in
    let metrics =
      List.filter_map
        (fun (sp : Ledger.spec) ->
          Option.map (fun v -> (sp.Ledger.name, v, sp.Ledger.unit)) (List.assoc_opt sp.Ledger.name o.metrics))
        specs
    in
    let correct = o.failed = 0 && List.length metrics = List.length specs in
    Printf.printf "workload %s seed %d seconds %g trace %b: %d runs, %d failed\n" w.name seed seconds trace
      o.attempted o.failed;
    Printf.printf "fingerprint %s\n" o.fingerprint;
    List.iter (fun (n, v, u) -> Printf.printf "  %-42s %16.6f %s\n" n v u) metrics;
    print_endline (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
    exit (if correct then 0 else 1)

(* --- Sets of runs -------------------------------------------------------------- *)

type child = {
  c_correct : bool;
  c_attempted : int;
  c_failed : int;
  c_fingerprint : string;
  c_metrics : (string * float) list;
}

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  ignore (Unix.close_process_in ic);
  let fingerprint =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"fingerprint " l then Some (String.sub l 12 (String.length l - 12))
        else None)
      lines
  in
  match (List.rev lines, fingerprint) with
  | last :: _, Some fp -> (
    try
      let j = Json.parse last in
      let num k = Option.bind (Json.member k j) Json.to_num |> Option.value ~default:nan in
      let metrics =
        match Json.member "metrics" j with
        | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
            kvs
        | _ -> []
      in
      Some
        {
          c_correct = Json.member "correct" j = Some (Json.Bool true);
          c_attempted = int_of_float (num "attempted");
          c_failed = int_of_float (num "failed");
          c_fingerprint = fp;
          c_metrics = metrics;
        }
    with Json.Parse_error _ -> None)
  | _ -> None

let host () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os_type", Json.Str Sys.os_type);
      ("word_size", Json.Num (float_of_int Sys.word_size));
    ]

let stat_obj (sp : Ledger.spec) values =
  let q1, med, q3 = Ledger.quartiles values in
  Json.Obj
    [
      ("unit", Json.Str sp.Ledger.unit);
      ("better", Json.Str (Ledger.better_to_string sp.Ledger.better));
      ("bound", match sp.Ledger.bound with Some b -> Json.Num b | None -> Json.Null);
      ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ("median", Json.Num med);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.Num (float_of_int (List.length values)));
    ]

let run_set ~reps ~seed ~seconds ~smoke ~golden_path ~out =
  let common = [ "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--golden"; golden_path ] @ (if smoke then [ "--smoke" ] else []) in
  let child w trace =
    Printf.eprintf "[set] %s trace=%d\n%!" w.name trace;
    spawn ([ "--workload"; w.name; "--trace"; string_of_int trace ] @ common)
  in
  (* Reps go round-robin across workloads so drift on the host spreads evenly. *)
  let untraced = List.concat (List.init reps (fun _ -> List.map (fun w -> (w.name, child w 0)) all)) in
  let traced = List.map (fun w -> (w.name, child w 1)) all in
  let ok = ref true in
  let workload w =
    let mine = List.filter_map (fun (n, c) -> if n = w.name then Some c else None) untraced in
    let runs = List.filter_map Fun.id mine in
    let tr = Option.join (List.assoc_opt w.name traced) in
    let all_runs = runs @ Option.to_list tr in
    let fps = List.sort_uniq String.compare (List.map (fun c -> c.c_fingerprint) all_runs) in
    let correct =
      List.length runs = List.length mine && tr <> None && List.for_all (fun c -> c.c_correct) all_runs
    in
    let stable = List.length fps = 1 in
    if not (correct && stable) then ok := false;
    let attempted = List.fold_left (fun a c -> a + c.c_attempted) 0 all_runs in
    let failed = List.fold_left (fun a c -> a + c.c_failed) 0 all_runs in
    ( w.name,
      Json.Obj
        [
          ("correct", Json.Bool correct);
          ("attempted", Json.Num (float_of_int attempted));
          ("failed", Json.Num (float_of_int failed));
          ("failed_ratio", Json.Num (if attempted > 0 then float_of_int failed /. float_of_int attempted else 1.0));
          ("fingerprint", Json.Str (String.concat " || " fps));
          ("fingerprint_stable", Json.Bool stable);
          ( "end_to_end",
            Json.Obj
              (List.map
                 (fun (sp : Ledger.spec) ->
                   ( sp.Ledger.name,
                     stat_obj sp (List.filter_map (fun c -> List.assoc_opt sp.Ledger.name c.c_metrics) runs) ))
                 Ledger.end_to_end) );
          ( "per_layer",
            Json.Obj
              (List.filter_map
                 (fun (sp : Ledger.spec) ->
                   Option.bind tr (fun c ->
                       Option.map
                         (fun v -> (sp.Ledger.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str sp.Ledger.unit) ]))
                         (List.assoc_opt sp.Ledger.name c.c_metrics)))
                 Ledger.per_layer) );
        ] )
  in
  let doc =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("reps", Json.Num (float_of_int reps));
        ("seconds", Json.Num seconds);
        ("size", Json.Str (if smoke then "smoke" else "full"));
        ("host", host ());
        ("workloads", Json.Obj (List.map workload all));
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" out;
  exit (if !ok then 0 else 1)

(* --- Reading set files ------------------------------------------------------------ *)

let load path = Json.parse (In_channel.with_open_text path In_channel.input_all)

let workloads_of doc = match Json.member "workloads" doc with Some (Json.Obj kvs) -> kvs | _ -> []

let e2e_stats wdoc name =
  Option.bind (Json.member "end_to_end" wdoc) (Json.member name)
  |> Option.map (fun s ->
         let f k = Option.bind (Json.member k s) Json.to_num |> Option.value ~default:nan in
         (f "median", f "q1", f "q3", List.filter_map Json.to_num (Json.to_list (Option.value ~default:Json.Null (Json.member "values" s)))))

(* A verdict for one (workload, metric) row, following choosing-metrics
   §6–8: a row whose spread exceeds the bound is unresolved unless every
   change run beats every parent run. *)
let verdict (sp : Ledger.spec) (ma, q1a, q3a, va) (mb, q1b, q3b, vb) =
  let bound = Option.value sp.Ledger.bound ~default:0.0 in
  let sign = match sp.Ledger.better with Lower -> 1.0 | Higher -> -1.0 in
  let worse_by = sign *. (mb -. ma) /. ma in
  let spread_a = (q3a -. q1a) /. ma and spread_b = (q3b -. q1b) /. mb in
  let beats b a = match sp.Ledger.better with Lower -> b < a | Higher -> b > a in
  let dominates =
    va <> [] && vb <> [] && List.for_all (fun b -> List.for_all (fun a -> beats b a) va) vb
  in
  if Float.max spread_a spread_b > bound && not dominates then "unresolved"
  else if worse_by > bound then "worse"
  else if dominates && -.worse_by > spread_a then "better"
  else "within bound"

let compare_sets paths =
  match List.map (fun p -> (p, load p)) paths with
  | [] | [ _ ] ->
    prerr_endline "--compare needs a parent set and at least one change set";
    exit 2
  | (pa, parent) :: changes ->
    let worse = ref false in
    List.iter
      (fun (pb, change) ->
        Printf.printf "parent %s -> change %s\n" pa pb;
        Printf.printf "%-26s %-24s %28s %28s %14s  %s\n" "workload" "metric" "parent median [q1,q3]"
          "change median [q1,q3]" "change/parent" "verdict";
        List.iter
          (fun (wname, wa) ->
            match List.assoc_opt wname (workloads_of change) with
            | None -> Printf.printf "%-26s missing from %s\n" wname pb
            | Some wb ->
              List.iter
                (fun (sp : Ledger.spec) ->
                  match (e2e_stats wa sp.Ledger.name, e2e_stats wb sp.Ledger.name) with
                  | Some ((ma, q1a, q3a, _) as a), Some ((mb, q1b, q3b, _) as b) ->
                    let v = verdict sp a b in
                    if v = "worse" then worse := true;
                    Printf.printf "%-26s %-24s %12.6g [%g,%g] %12.6g [%g,%g] %14.4f  %s (bound %g, %s is better)\n" wname
                      sp.Ledger.name ma q1a q3a mb q1b q3b (mb /. ma) v
                      (Option.value sp.Ledger.bound ~default:0.0)
                      (Ledger.better_to_string sp.Ledger.better)
                  | _ -> Printf.printf "%-26s %-24s missing\n" wname sp.Ledger.name)
                Ledger.end_to_end)
          (workloads_of parent))
      changes;
    exit (if !worse then 1 else 0)

(* The workloads must separate the layers: the traced ledger of a full
   set shows each workload's layer doing the work it was chosen for. *)
let share_gates =
  [
    ("caida500-legacy", "prof.bgp.process.share", ( >= ), 0.8);
    ("caida500-hybrid", "layer.ctrl.share", ( >= ), 0.1);
    ("caida500-legacy", "layer.ctrl.share", ( <= ), 0.0);
    ("failover-probes-clique16", "layer.dataplane.share", ( >= ), 0.5);
    ("fig2-clique16", "layer.dataplane.share", ( <= ), 0.0);
    ("caida500-legacy", "layer.dataplane.share", ( <= ), 0.0);
    ("caida500-hybrid", "layer.dataplane.share", ( <= ), 0.0);
  ]

let check_set path =
  let doc = load path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let ws = workloads_of doc in
  List.iter
    (fun w ->
      match List.assoc_opt w.name ws with
      | None -> problem "%s: missing" w.name
      | Some wd ->
        if Json.member "correct" wd <> Some (Json.Bool true) then problem "%s: a correctness gate failed" w.name;
        if Json.member "fingerprint_stable" wd <> Some (Json.Bool true) then
          problem "%s: fingerprints differ across reps" w.name;
        if Option.bind (Json.member "failed" wd) Json.to_num <> Some 0.0 then problem "%s: failed runs" w.name;
        List.iter
          (fun (sp : Ledger.spec) ->
            match e2e_stats wd sp.Ledger.name with
            | Some (m, _, _, _ :: _) when Float.is_finite m && m > 0.0 -> ()
            | _ -> problem "%s: %s missing or not positive" w.name sp.Ledger.name)
          Ledger.end_to_end;
        List.iter
          (fun (sp : Ledger.spec) ->
            match Option.bind (Json.member "per_layer" wd) (Json.member sp.Ledger.name) with
            | Some _ -> ()
            | None -> problem "%s: per-layer %s missing" w.name sp.Ledger.name)
          Ledger.per_layer)
    all;
  if Option.bind (Json.member "size" doc) Json.to_str = Some "full" then
    List.iter
      (fun (wname, metric, cmp, limit) ->
        let v =
          Option.bind (List.assoc_opt wname ws) (fun wd ->
              Option.bind (Json.member "per_layer" wd) (Json.member metric))
          |> fun o -> Option.bind (Option.bind o (Json.member "value")) Json.to_num
        in
        match v with
        | Some v when cmp v limit -> ()
        | Some v -> problem "%s: %s = %g outside its expected range (limit %g)" wname metric v limit
        | None -> problem "%s: %s missing" wname metric)
      share_gates;
  match !problems with
  | [] ->
    Printf.printf "%s: ok\n" path;
    exit 0
  | ps ->
    List.iter (fun p -> Printf.printf "%s: %s\n" path p) (List.rev ps);
    exit 1

(* --- Listing and the manifest ------------------------------------------------------ *)

let list () =
  let line kind (sp : Ledger.spec) =
    Printf.printf "%s %s %s %s%s\n" kind sp.Ledger.name sp.Ledger.unit
      (Ledger.better_to_string sp.Ledger.better)
      (match sp.Ledger.bound with Some b -> Printf.sprintf " %g" b | None -> "")
  in
  List.iter (fun w -> Printf.printf "workload %s %s\n" w.name w.why) all;
  List.iter (line "end_to_end") Ledger.end_to_end;
  List.iter (line "per_layer") Ledger.per_layer

(* BENCHMARK.json must list exactly this harness's workloads and metrics. *)
let check_manifest path =
  let doc = load path in
  let problems = ref [] in
  let expect what got want = if got <> want then problems := Printf.sprintf "%s: %s, the harness has %s" what got want :: !problems in
  let str k j = Option.value ~default:"(missing)" (Option.bind (Json.member k j) Json.to_str) in
  let entries key = Json.to_list (Option.value ~default:Json.Null (Json.member key doc)) in
  let names l f = String.concat "," (List.map f l) in
  expect "workloads"
    (names (entries "workloads") (fun j -> str "name" j ^ "=" ^ str "why" j))
    (names all (fun w -> w.name ^ "=" ^ w.why));
  let spec_line (sp : Ledger.spec) =
    Printf.sprintf "%s[%s,%s%s]" sp.Ledger.name sp.Ledger.unit (Ledger.better_to_string sp.Ledger.better)
      (match sp.Ledger.bound with Some b -> Printf.sprintf ",%g" b | None -> "")
  in
  let json_line j =
    Printf.sprintf "%s[%s,%s%s]" (str "name" j) (str "unit" j) (str "better" j)
      (match Option.bind (Json.member "bound" j) Json.to_num with Some b -> Printf.sprintf ",%g" b | None -> "")
  in
  expect "end_to_end" (names (entries "end_to_end") json_line) (names Ledger.end_to_end spec_line);
  expect "per_layer" (names (entries "per_layer") json_line) (names Ledger.per_layer spec_line);
  match !problems with
  | [] -> exit 0
  | ps ->
    List.iter (fun p -> Printf.eprintf "%s drifted from the harness: %s\n" path p) (List.rev ps);
    exit 1

(* --- Command line ---------------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref golden_seed and seconds = ref 20.0 and trace = ref 0 in
  let smoke = ref false and golden = ref default_golden and reps = ref 0 and out = ref None in
  let compare = ref false and check = ref None and manifest = ref None and do_list = ref false in
  let files = ref [] in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME one measured window of this workload");
      ("--seed", Arg.Set_int seed, "S base seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "T length of a measured window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics untraced (0) or the per-layer ledger (1)");
      ("--smoke", Arg.Set smoke, " reduced sizes for CI");
      ("--golden", Arg.Set_string golden, "CSV committed Fig. 2 data (default " ^ default_golden ^ ")");
      ("--reps", Arg.Set_int reps, "N run a set of N untraced reps per workload plus one traced rep");
      ("--out", Arg.String (fun s -> out := Some s), "FILE where a set is written");
      ("--compare", Arg.Set compare, " compare set files: the first is the parent");
      ("--check", Arg.String (fun s -> check := Some s), "FILE check a set file's gates");
      ("--list", Arg.Set do_list, " list workloads and metrics");
      ("--check-manifest", Arg.String (fun s -> manifest := Some s), "FILE check BENCHMARK.json against the harness");
    ]
    (fun f -> files := f :: !files)
    "main.exe: the repository benchmark (see bench/workloads/README.md)";
  let size = if !smoke then Workloads.smoke else full in
  if !do_list then list ()
  else if !compare then compare_sets (List.rev !files)
  else
    match (!check, !manifest, !workload, !out) with
    | Some path, _, _, _ -> check_set path
    | _, Some path, _, _ -> check_manifest path
    | _, _, Some name, _ ->
      run_window ~name ~size ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~golden_path:!golden
    | _, _, None, Some out when !reps > 0 ->
      run_set ~reps:!reps ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~golden_path:!golden ~out
    | _ ->
      prerr_endline "nothing to do: give --workload, --reps with --out, --compare, --check or --list";
      exit 2
