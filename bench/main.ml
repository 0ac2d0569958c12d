(* The benchmark harness: regenerates every table/figure of the paper's
   evaluation (full-size, printed as series + ASCII boxplots), then runs
   one Bechamel micro-benchmark per experiment kind plus core-algorithm
   benchmarks.

   Sections:
     FIG2            withdrawal convergence vs SDN fraction, 16-AS clique
     ANNOUNCE        announcement convergence vs SDN fraction (§4)
     FAILOVER        fail-over convergence vs SDN fraction (§4)
     ABLATION-DELAY  controller delayed-recomputation interval (A1)
     SUBCLUSTER      disjoint sub-cluster resilience (A2)
     ABLATION-MRAI   MRAI sensitivity (A3)
     ABLATION-WRATE  withdrawal pacing: RFC vs Quagga (A4)
     CHURN           collector update counts vs SDN fraction
     TELEMETRY       one instrumented withdrawal run: sampled metrics
                     timeline + scheduler wall-clock profile
     MICRO           Bechamel micro-benchmarks

   `dune exec bench/main.exe -- --quick` runs a reduced sweep.
   `--out FILE` additionally writes a machine-readable JSON baseline
   (per-section wall-clock, FIG2 medians, headline counters, Bechamel
   micro results) so successive PRs can diff perf against each other;
   `--check FILE` validates such a baseline and exits.
   `--metrics-out FILE` exports the TELEMETRY run's timeline (format by
   extension: .prom/.txt Prometheus, .csv CSV, else JSONL);
   `--metrics-interval S` sets its sampling period in simulated seconds.
   `--jobs N` (default: recommended cores, capped) additionally runs the
   FIG2 and PLACEMENT sweeps on an N-domain `Engine.Pool`, asserts the
   parallel results equal the sequential ones, and records per-section
   `wall_par_s`/`speedup` plus `meta.jobs` in the baseline. *)

(* Minimal JSON value + writer + parser: just enough to emit the bench
   baseline and validate it back (`--check`) without a json dependency. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let num v = if Float.is_nan v then Null else Num v

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let rec emit b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" v)
      else Buffer.add_string b (Printf.sprintf "%.9g" v)
    | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          emit b v)
        l;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          emit b (Str k);
          Buffer.add_string b ": ";
          emit b v)
        kvs;
      Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 4096 in
    emit b t;
    Buffer.contents b

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let number () =
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' ->
            incr pos;
            Buffer.contents b
          | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?' (* placeholder: validation only *)
              | None -> fail "bad \\u escape");
              pos := !pos + 4
            | _ -> fail "bad escape");
            incr pos;
            go ()
          | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ()
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> Str (string_lit ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
end

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let flag_value name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let metrics_out = flag_value "--metrics-out"

let out_path = flag_value "--out"

let check_path = flag_value "--check"

(* Worker domains for the parallel sweep sections.  0/absent = auto
   (recommended domain count, capped); 1 disables the parallel pass. *)
let jobs =
  match flag_value "--jobs" with
  | None -> Engine.Pool.recommended_jobs ()
  | Some s -> (
    match int_of_string_opt s with
    | Some 0 -> Engine.Pool.recommended_jobs ()
    | Some v when v >= 1 -> v
    | _ -> Fmt.failwith "--jobs: expected a non-negative integer, got %S" s)

(* Per-section wall-clock, accumulated in run order for the JSON baseline. *)
let sections_wall : (string * float) list ref = ref []

(* Sections also measured on the domain pool: name -> (wall at jobs=N,
   speedup = sequential wall / parallel wall). *)
let sections_par : (string * (float * float)) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  sections_wall := (name, Unix.gettimeofday () -. t0) :: !sections_wall;
  r

(* Run a sweep section at jobs=1 (the baseline wall_s, comparable across
   PRs) and again at jobs=N, requiring bit-identical results — the
   deterministic speedup accounting.  Returns the sequential result. *)
let timed_speedup name ~seq ~par ~equal =
  let t0 = Unix.gettimeofday () in
  let r_seq = seq () in
  let wall_seq = Unix.gettimeofday () -. t0 in
  sections_wall := (name, wall_seq) :: !sections_wall;
  if jobs > 1 then begin
    let t0 = Unix.gettimeofday () in
    let r_par = par () in
    let wall_par = Unix.gettimeofday () -. t0 in
    if not (equal r_seq r_par) then begin
      Fmt.epr "FATAL: %s: jobs=%d result differs from the sequential run@." name jobs;
      exit 1
    end;
    let speedup = wall_seq /. wall_par in
    sections_par := (name, (wall_par, speedup)) :: !sections_par;
    Fmt.pr "%s: jobs=1 %.3f s, jobs=%d %.3f s, speedup %.2fx (results identical)@." name
      wall_seq jobs wall_par speedup
  end;
  r_seq

(* `--check FILE`: validate a previously written baseline and exit.  Keeps
   the CI smoke alias honest — the emitted file must parse and carry the
   sections/micro/meta payload a later PR would diff against. *)
let check_baseline path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fail msg =
    Fmt.epr "%s: %s@." path msg;
    exit 1
  in
  let json =
    match Json.parse contents with
    | v -> v
    | exception Json.Parse_error msg -> fail ("invalid JSON: " ^ msg)
  in
  let top = match json with Json.Obj kvs -> kvs | _ -> fail "top level is not an object" in
  let field name =
    match List.assoc_opt name top with
    | Some v -> v
    | None -> fail (Fmt.str "missing %S field" name)
  in
  let meta =
    match field "meta" with
    | Json.Obj (_ :: _ as kvs) -> kvs
    | _ -> fail "\"meta\" is not a non-empty object"
  in
  (* [jobs] arrived with the parallel runner (PR 5); pre-PR5 baselines
     (e.g. BENCH_pr3.json) simply lack it — both must validate. *)
  let meta_jobs =
    match List.assoc_opt "jobs" meta with
    | None -> None
    | Some (Json.Num v) when v >= 1.0 -> Some (int_of_float v)
    | Some _ -> fail "\"meta.jobs\" is not a number >= 1"
  in
  let nonempty_arr name =
    match field name with
    | Json.Arr (_ :: _ as items) ->
      List.iter
        (function Json.Obj _ -> () | _ -> fail (Fmt.str "%S entry is not an object" name))
        items;
      items
    | _ -> fail (Fmt.str "%S is not a non-empty array" name)
  in
  let sections = nonempty_arr "sections" in
  (* Optional per-section parallel fields: when one of wall_par_s/speedup
     is present both must be, be finite and be consistent with wall_s. *)
  let nspeedup =
    List.fold_left
      (fun acc section ->
        let kvs = match section with Json.Obj kvs -> kvs | _ -> [] in
        let num k =
          match List.assoc_opt k kvs with
          | Some (Json.Num v) when Float.is_finite v && v > 0.0 -> Some v
          | Some _ -> fail (Fmt.str "section field %S is not a positive number" k)
          | None -> None
        in
        match (num "wall_par_s", num "speedup") with
        | None, None -> acc
        | Some _, None | None, Some _ ->
          fail "sections must carry wall_par_s and speedup together"
        | Some wall_par, Some speedup ->
          (match num "wall_s" with
          | Some wall when Float.abs ((wall /. wall_par) -. speedup) > 0.05 *. speedup ->
            fail "section speedup is inconsistent with wall_s / wall_par_s"
          | _ -> ());
          acc + 1)
      0 sections
  in
  if nspeedup > 0 && meta_jobs = None then
    fail "sections carry speedup fields but \"meta.jobs\" is missing";
  let nmicro = List.length (nonempty_arr "micro") in
  (match field "headline" with Json.Obj _ -> () | _ -> fail "\"headline\" is not an object");
  (* Optional "scale" object (PR 8+): validate the SCALE metrics and
     guard their ratios.  Pre-PR8 baselines simply lack the field. *)
  let scale_summary =
    match List.assoc_opt "scale" top with
    | None -> ""
    | Some (Json.Obj kvs) ->
      let num k =
        match List.assoc_opt k kvs with
        | Some (Json.Num v) when Float.is_finite v -> v
        | Some _ -> fail (Fmt.str "\"scale.%s\" is not a finite number" k)
        | None -> fail (Fmt.str "missing \"scale.%s\"" k)
      in
      let pos k =
        let v = num k in
        if v <= 0.0 then fail (Fmt.str "\"scale.%s\" must be positive" k);
        v
      in
      let ases = pos "ases" in
      let prefixes = pos "prefixes" in
      let ups = pos "updates_per_sec" in
      let rib = pos "rib_routes" in
      let adj_in = pos "adj_in_routes" in
      let peak = pos "peak_words" in
      ignore (pos "load_updates");
      ignore (pos "load_wall_s");
      ignore (pos "live_words");
      ignore (pos "distinct_attrs");
      (match num "load_settled" with
      | 0.0 | 1.0 -> ()
      | _ -> fail "\"scale.load_settled\" must be 0 or 1");
      if num "tdown_s" < 0.0 then fail "\"scale.tdown_s\" must be non-negative";
      (* Ratio guards, deliberately generous: catch order-of-magnitude
         regressions (a de-interning or a leak), not machine noise. *)
      if adj_in < rib then fail "\"scale.adj_in_routes\" below \"scale.rib_routes\"";
      let words_per_route = peak /. Float.max 1.0 (rib +. adj_in) in
      if words_per_route > 10_000.0 then
        fail
          (Fmt.str "scale: %.0f peak heap words per route (> 10000): interning regression?"
             words_per_route);
      if ups < 100.0 then fail "scale: under 100 updates/s: propagation path regression?";
      Fmt.str ", scale %.0f ASes x %.0f prefixes (%.0f upd/s)" ases prefixes ups
    | Some _ -> fail "\"scale\" is not an object"
  in
  (* Optional "loss" object (PR 10+): the data-plane fast path's
     throughput and allocation guards, plus the probe-vs-verifier sweep
     health.  Missing = an older baseline, still valid. *)
  let loss_summary =
    match List.assoc_opt "loss" top with
    | None -> ""
    | Some (Json.Obj kvs) ->
      let num k =
        match List.assoc_opt k kvs with
        | Some (Json.Num v) when Float.is_finite v -> v
        | Some _ -> fail (Fmt.str "\"loss.%s\" is not a finite number" k)
        | None -> fail (Fmt.str "missing \"loss.%s\"" k)
      in
      let pps = num "probes_per_sec" in
      if num "probes" <= 0.0 then fail "\"loss.probes\" must be positive";
      if pps < 1_000_000.0 then
        fail
          (Fmt.str "loss: %.0f probes/s (under 1M): fast-path throughput regression?" pps);
      let alloc = num "alloc_words_per_probe" in
      if alloc < 0.0 then fail "\"loss.alloc_words_per_probe\" must be non-negative";
      if alloc > 8.0 then
        fail
          (Fmt.str "loss: %.1f minor words per probe: fast-path boxing regression?" alloc);
      if num "identical" <> 1.0 then
        fail "loss: differential FAILED: parallel sweep was not identical to sequential";
      if num "residual_issues_total" <> 0.0 then
        fail "loss: verifier found residual non-delivered pairs after recovery";
      if num "loss_s_sdn0" < 0.0 || num "loss_s_sdnmax" < 0.0 then
        fail "loss: negative loss duration";
      Fmt.str ", loss %.1fM probes/s (%.2f w/probe)" (pps /. 1e6) alloc
    | Some _ -> fail "\"loss\" is not an object"
  in
  Fmt.pr "%s: ok (%d sections%s, %d micro benchmarks%s%s%s)@." path (List.length sections)
    (if nspeedup > 0 then Fmt.str ", %d with speedup" nspeedup else "")
    nmicro
    (match meta_jobs with Some j -> Fmt.str ", jobs=%d" j | None -> ", pre-jobs baseline")
    scale_summary loss_summary;
  exit 0

let () = Option.iter check_baseline check_path

let metrics_interval =
  match flag_value "--metrics-interval" with
  | None -> 1.0
  | Some s -> (
    match float_of_string_opt s with
    | Some v when v > 0.0 -> v
    | _ -> Fmt.failwith "--metrics-interval: expected a positive number, got %S" s)

let n = if quick then 8 else 16

let runs = if quick then 3 else 10

let config = Framework.Config.default

(* One pool for every parallel pass; [None] when running sequentially. *)
let pool = if jobs > 1 then Some (Engine.Pool.create ~jobs) else None

let section name = Fmt.pr "@.===== %s =====@." name

(* Machine-readable copy of a sweep for external plotting:
   bench_results/<label>.csv. *)
let write_csv (s : _ Framework.Experiments.series) csv =
  let dir = "bench_results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (s.Framework.Experiments.label ^ ".csv")) in
  output_string oc csv;
  close_out oc

let print_series s =
  Fmt.pr "%a@." Framework.Experiments.pp_series s;
  Fmt.pr "%s@." (Framework.Visualize.series_to_ascii s);
  write_csv s (Framework.Experiments.series_to_csv s)

let print_trend s =
  let intercept, slope, r2 = Framework.Experiments.median_trend s in
  Fmt.pr "linear fit of medians: y = %.2f + %.2f*x   r^2 = %.3f@." intercept slope r2

let fig2 () =
  section (Fmt.str "FIG2: withdrawal convergence, %d-AS clique, %d runs/point" n runs);
  let s =
    timed_speedup "fig2"
      ~seq:(fun () -> Framework.Experiments.fig2_withdrawal ~n ~runs ~config ())
      ~par:(fun () -> Framework.Experiments.fig2_withdrawal ?pool ~n ~runs ~config ())
      ~equal:Framework.Experiments.equal_series
  in
  print_series s;
  print_trend s;
  s

let announce () =
  section "ANNOUNCE: announcement convergence (smaller reductions expected)";
  let s = Framework.Experiments.announcement_sweep ~n ~runs ~config () in
  print_series s;
  s

let failover () =
  section "FAILOVER: stub primary-link failure, backup via 2-AS chain";
  let s = Framework.Experiments.failover_sweep ~n ~runs ~config () in
  print_series s;
  Fmt.pr "data-plane restoration (the demo's end-to-end interruption):@.";
  Fmt.pr "%8s %14s %14s@." "sdn" "mean-restore-s" "max-restore-s";
  List.iter
    (fun (p : Framework.Experiments.run_result Framework.Experiments.point) ->
      let mean f = Engine.Stats.mean (List.map f p.Framework.Experiments.results) in
      Fmt.pr "%8.0f %14.2f %14.2f@." p.Framework.Experiments.x
        (mean (fun r -> r.Framework.Experiments.restore_mean))
        (mean (fun r -> r.Framework.Experiments.restore_max)))
    s.Framework.Experiments.points;
  s

let rounds () =
  section "ROUNDS: MRAI exploration waves per withdrawal (the mechanism behind FIG2)";
  Fmt.pr "%8s %8s %14s@." "sdn" "waves" "Tdown-s";
  List.iter
    (fun sdn ->
      let spec = Framework.Experiments.with_clique_sdn ~n ~sdn (Topology.Artificial.clique n) in
      let exp = Framework.Experiment.create ~config ~seed:67 spec in
      let origin = Topology.Artificial.asn 0 in
      let prefix = Framework.Experiment.default_prefix exp origin in
      ignore
        (Framework.Experiment.measure exp ~prefix (fun () ->
             ignore (Framework.Experiment.announce exp origin)));
      let since = Framework.Experiment.now exp in
      let m =
        Framework.Experiment.measure exp ~prefix (fun () ->
            ignore (Framework.Experiment.withdraw exp origin))
      in
      let waves =
        Framework.Convergence.exploration_rounds ~since (Framework.Experiment.watcher exp) prefix
      in
      Fmt.pr "%8d %8d %14.2f@." sdn waves (Framework.Experiment.convergence_seconds m))
    (if quick then [ 0; 4 ] else [ 0; 4; 8; 12; 14 ])

let ablation_delay () =
  section "ABLATION-DELAY: controller recomputation delay at 50% deployment (x = ms)";
  let s = Framework.Experiments.ablation_recompute_delay ~n ~runs ~config () in
  print_series s

let ablation_mrai () =
  section "ABLATION-MRAI: MRAI sensitivity (x = MRAI seconds)";
  let s0 = Framework.Experiments.ablation_mrai ~n ~runs ~config ~sdn:0 () in
  print_series s0;
  let s8 = Framework.Experiments.ablation_mrai ~n ~runs ~config ~sdn:(n / 2) () in
  print_series s8

let ablation_wrate () =
  section "ABLATION-WRATE: withdrawal pacing (x=0 RFC-exempt, x=1 Quagga-paced)";
  let s = Framework.Experiments.ablation_wrate ~n ~runs ~config ~sdn:0 () in
  print_series s

let scaling () =
  section "SCALING: withdrawal convergence vs clique size (x = n, 50% centralized vs 0%)";
  let s_half =
    Framework.Experiments.scaling_sweep
      ~sizes:(if quick then [ 6; 8; 10 ] else [ 8; 12; 16; 20; 24 ])
      ~fraction:0.5 ~runs:(if quick then 2 else 5) ~config ()
  in
  print_series s_half;
  let s_zero =
    Framework.Experiments.scaling_sweep
      ~sizes:(if quick then [ 6; 8; 10 ] else [ 8; 12; 16; 20; 24 ])
      ~fraction:0.0 ~runs:(if quick then 2 else 5) ~config ()
  in
  print_series s_zero

let ablation_speaker_mrai () =
  section "ABLATION-SPEAKER-MRAI: pace the cluster speaker like a BGP router (50% SDN)";
  Fmt.pr "%14s %12s@." "speaker-mrai" "Tdown-med-s";
  List.iter
    (fun (label, speaker_mrai) ->
      let config = { config with Framework.Config.speaker_mrai } in
      let results =
        List.init
          (if quick then 2 else 5)
          (fun i ->
            Framework.Experiments.clique_run ~n ~sdn:(n / 2)
              ~event:Framework.Experiments.Withdrawal ~seed:(61 + (1000 * i)) ~config ())
      in
      let med =
        Engine.Stats.median (List.map (fun r -> r.Framework.Experiments.seconds) results)
      in
      Fmt.pr "%14s %12.2f@." label med)
    [ ("off (exabgp)", None); ("30s (quagga)", Some Bgp.Config.default) ]

let ablation_damping () =
  section "ABLATION-DAMPING: flap storm (4 withdraw/announce cycles, 45 s apart)";
  Fmt.pr "%10s %16s %12s %14s %12s@." "damping" "collector-updates" "recovery-s"
    "suppressions" "blackholed";
  List.iter
    (fun damping ->
      let r = Framework.Experiments.flap_run ~n ~damping ~seed:31 ~config () in
      Fmt.pr "%10b %16d %12.1f %14d %12d@." damping
        r.Framework.Experiments.collector_updates_total
        r.Framework.Experiments.recovery_seconds
        r.Framework.Experiments.suppressions_total
        r.Framework.Experiments.blackholed_after_storm)
    [ false; true ]

let placement () =
  section "PLACEMENT: which ASes to centralize (Internet-like topology, withdrawal)";
  let compute ?pool () =
    List.map
      (fun placement ->
        Framework.Experiments.placement_sweep ?pool
          ~runs:(if quick then 2 else 5)
          ~ks:(if quick then [ 0; 4; 8 ] else [ 0; 2; 4; 6; 8 ])
          ~config ~placement ())
      [ Framework.Experiments.Top_degree; Framework.Experiments.Random_choice;
        Framework.Experiments.Stubs_first ]
  in
  let ss =
    timed_speedup "placement"
      ~seq:(fun () -> compute ())
      ~par:(fun () -> compute ?pool ())
      ~equal:(fun a b -> List.for_all2 Framework.Experiments.equal_series a b)
  in
  List.iter print_series ss

let churn_load () =
  section "CHURN-LOAD: withdrawal convergence under background flapping (per-peer MRAI coupling)";
  Fmt.pr "%8s %14s %14s@." "sdn" "quiet-Tdown-s" "churny-Tdown-s";
  List.iter
    (fun sdn ->
      let quiet =
        Framework.Experiments.clique_run ~n ~sdn ~event:Framework.Experiments.Withdrawal
          ~seed:59 ~config ()
      in
      let churny =
        Framework.Experiments.churn_run ~n ~sdn ~flap_period_s:20.0 ~seed:59 ~config ()
      in
      Fmt.pr "%8d %14.2f %14.2f@." sdn quiet.Framework.Experiments.seconds
        churny.Framework.Experiments.seconds)
    (if quick then [ 0; 4 ] else [ 0; 4; 8; 12 ])

let table_size () =
  section "TABLE-SIZE: withdrawal convergence vs background prefixes (negative control)";
  Fmt.pr "%12s %12s %10s@." "background" "Tdown-s" "changes";
  List.iter
    (fun background ->
      let r =
        Framework.Experiments.table_size_run ~n ~sdn:0 ~background ~seed:47 ~config ()
      in
      Fmt.pr "%12d %12.2f %10d@." background r.Framework.Experiments.seconds
        r.Framework.Experiments.changes)
    (if quick then [ 0; 4 ] else [ 0; 5; 10; 15 ])

let subcluster () =
  section "SUBCLUSTER: disjoint sub-clusters bridged over the legacy world";
  let r = Framework.Experiments.subcluster_resilience ~config () in
  Fmt.pr "reachable before split:       %b@." r.Framework.Experiments.reachable_before;
  Fmt.pr "reachable after bridge fail:  %b@." r.Framework.Experiments.reachable_after_split;
  Fmt.pr "post-split path via legacy:   %b@." r.Framework.Experiments.used_legacy_bridge;
  Fmt.pr "reachable after recovery:     %b@." r.Framework.Experiments.reachable_after_recovery

let churn (fig2_series : Framework.Experiments.run_result Framework.Experiments.series) =
  section "CHURN: BGP updates seen by the route collector per withdrawal run";
  Fmt.pr "%8s %12s %12s@." "sdn" "mean-updates" "mean-changes";
  List.iter
    (fun (p : Framework.Experiments.run_result Framework.Experiments.point) ->
      let mean f = Engine.Stats.mean (List.map f p.Framework.Experiments.results) in
      Fmt.pr "%8.0f %12.1f %12.1f@." p.Framework.Experiments.x
        (mean (fun r -> float_of_int r.Framework.Experiments.collector_updates))
        (mean (fun r -> float_of_int r.Framework.Experiments.changes)))
    fig2_series.Framework.Experiments.points

let telemetry () =
  section "TELEMETRY: instrumented withdrawal run (metrics timeline + scheduler profile)";
  let sdn = n / 2 in
  let spec = Framework.Experiments.with_clique_sdn ~n ~sdn (Topology.Artificial.clique n) in
  let exp = Framework.Experiment.create ~config ~seed:67 spec in
  let sim = Framework.Experiment.sim exp in
  Engine.Sim.set_profiling sim true;
  let sink =
    Option.map
      (fun path ->
        Framework.Telemetry.create
          ~interval:(Engine.Time.of_sec_f metrics_interval)
          ~sim ~path ())
      metrics_out
  in
  let origin = Topology.Artificial.asn 0 in
  let prefix = Framework.Experiment.default_prefix exp origin in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp origin)));
  let m =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp origin))
  in
  let tdown = Framework.Experiment.convergence_seconds m in
  Fmt.pr "clique:%d sdn:%d withdrawal Tdown = %.2f s@." n sdn tdown;
  let snap = Framework.Experiment.final_metrics exp in
  let headline =
    List.filter_map
      (fun name -> Option.map (fun v -> (name, v)) (Engine.Metrics.value snap name))
      [ "controller_recompute_total"; "controller_recompute_skipped_total";
        "controller_flow_mods_total"; "controller_updates_in_total";
        "bgp_mrai_deferrals_total"; "net_messages_delivered_total" ]
  in
  List.iter (fun (name, v) -> Fmt.pr "%-32s %10.0f@." name v) headline;
  Fmt.pr "@.scheduler wall-clock self-profile (host time, varies run to run):@.";
  Fmt.pr "%a@." Engine.Sim.pp_profile sim;
  Option.iter
    (fun sink ->
      match Framework.Telemetry.finish sink with
      | Ok count ->
        Fmt.pr "metrics: %d snapshots written to %s@." count (Option.get metrics_out)
      | Error msg -> Fmt.epr "metrics: write failed: %s@." msg)
    sink;
  (tdown, headline)

(* --- causal tracing overhead -------------------------------------------- *)

(* The same seeded clique withdrawal run three ways: tracing disabled
   (the engine default), the always-on Ring flight recorder (the
   framework default) and Full retention (`hybridsim trace`).  Best-of-k
   host wall clock per mode; the ring/full ratios against disabled land
   in the baseline headline so later PRs can watch the overhead claim.
   The simulated result must be bit-identical across modes — trace ids
   come from a dedicated RNG stream and must never perturb the run. *)
let causal_overhead () =
  section "TRACE-OVERHEAD: same seeded withdrawal, tracing disabled vs ring vs full";
  let reps = if quick then 3 else 5 in
  let sdn = n / 2 in
  let run mode =
    let config = { config with Framework.Config.causal = mode } in
    let best = ref infinity in
    let seconds = ref nan in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r =
        Framework.Experiments.clique_run ~n ~sdn ~event:Framework.Experiments.Withdrawal
          ~seed:67 ~config ()
      in
      best := Float.min !best (Unix.gettimeofday () -. t0);
      seconds := r.Framework.Experiments.seconds
    done;
    (!best, !seconds)
  in
  let wall_off, secs_off = run Engine.Causal.Disabled in
  let wall_ring, secs_ring = run (Engine.Causal.Ring 4096) in
  let wall_full, secs_full = run Engine.Causal.Full in
  if not (secs_off = secs_ring && secs_off = secs_full) then begin
    Fmt.epr "FATAL: tracing mode changed the simulated result (%.6f / %.6f / %.6f)@."
      secs_off secs_ring secs_full;
    exit 1
  end;
  let ring_ratio = wall_ring /. wall_off in
  let full_ratio = wall_full /. wall_off in
  Fmt.pr "%-12s %12s %8s@." "mode" "wall_best_s" "ratio";
  Fmt.pr "%-12s %12.4f %8.2f@." "disabled" wall_off 1.0;
  Fmt.pr "%-12s %12.4f %8.2f@." "ring:4096" wall_ring ring_ratio;
  Fmt.pr "%-12s %12.4f %8.2f@." "full" wall_full full_ratio;
  Fmt.pr "simulated Tdown identical across modes: %.6f s (clique:%d sdn:%d, best of %d)@."
    secs_off n sdn reps;
  [ ("trace_overhead_ring_ratio", ring_ratio); ("trace_overhead_full_ratio", full_ratio) ]

(* --- Internet-scale stress ----------------------------------------------- *)

(* The PR 8 tentpole proof: a synthetic CAIDA graph at Internet-like AS
   counts, loaded with enough origins that the RIBs hold millions of
   routes, then one measured withdrawal.  The load phase runs under an
   explicit event budget AND a host-clock wall deadline per phase —
   with batching one delivery event can carry thousands of prefixes, so
   an event count alone does not bound work; full global propagation of
   10k prefixes across 5k ASes needs hours on one core.  The bench
   loads to the nearer horizon and reports [load_settled] honestly.
   The quick variant (100 ASes) settles completely. *)
let scale () =
  section "SCALE: CAIDA-graph load + measured withdrawal (trie RIBs, interned attrs)";
  let tier1, tier2, stubs, prefixes, budget, wall =
    if quick then (4, 24, 72, 200, 3_000_000, None)
    else (10, 200, 4790, 10_000, 12_000_000, Some 150.0)
  in
  let r =
    Framework.Experiments.scale_run ~tier1 ~tier2 ~stubs ~prefixes ~sdn:0
      ~load_max_events:budget ?phase_wall_s:wall ~clock:Unix.gettimeofday ~seed:5 ~config ()
  in
  let open Framework.Experiments in
  Fmt.pr "graph: %d ASes, %d links; %d prefixes loaded@." r.ases r.links r.prefixes;
  Fmt.pr "load: %d collector updates in %.1f s host time (%.0f updates/s), settled=%b@."
    r.load_updates r.load_seconds r.updates_per_sec r.load_settled;
  Fmt.pr "tables: %d Loc-RIB routes, %d Adj-RIB-In routes, %d interned attr sets@."
    r.rib_routes r.adj_in_routes r.distinct_attrs;
  Fmt.pr "heap: %d live words, %d peak words (%.1f MB peak)@." r.live_words r.peak_words
    (float_of_int r.peak_words *. 8.0 /. 1e6);
  Fmt.pr "withdrawal: Tdown = %.2f s (simulated), %d control changes@."
    r.withdrawal.seconds r.withdrawal.changes;
  [
    ("ases", float_of_int r.ases);
    ("links", float_of_int r.links);
    ("prefixes", float_of_int r.prefixes);
    ("load_updates", float_of_int r.load_updates);
    ("load_wall_s", r.load_seconds);
    ("updates_per_sec", r.updates_per_sec);
    ("load_settled", if r.load_settled then 1.0 else 0.0);
    ("rib_routes", float_of_int r.rib_routes);
    ("adj_in_routes", float_of_int r.adj_in_routes);
    ("live_words", float_of_int r.live_words);
    ("peak_words", float_of_int r.peak_words);
    ("distinct_attrs", float_of_int r.distinct_attrs);
    ("tdown_s", r.withdrawal.seconds);
  ]

(* --- Data-plane loss + fast-path throughput ------------------------------ *)

(* The PR 10 tentpole proof, two halves.  (1) The loss sweep: seeded
   probe bursts against the forwarding snapshot measure how long the
   data plane black-holes/loops packets after a link failure, per SDN
   membership level — run sequentially and on the pool, requiring
   bit-identical results.  (2) The fast path itself: a tight forward
   loop over the settled network's snapshot must clear 1M probes/s with
   near-zero per-probe minor allocation — guarded here and re-checked by
   `--check` against the recorded baseline. *)
let loss () =
  section "LOSS: data-plane loss vs centralization (probe bursts on the fast path)";
  let nn = if quick then 8 else 16 in
  let lruns = if quick then 2 else 5 in
  let s =
    timed_speedup "loss"
      ~seq:(fun () -> Framework.Experiments.loss_sweep ~n:nn ~runs:lruns ~config ())
      ~par:(fun () -> Framework.Experiments.loss_sweep ?pool ~n:nn ~runs:lruns ~config ())
      ~equal:Framework.Experiments.equal_series
  in
  Fmt.pr "%a@." Framework.Experiments.pp_loss_series s;
  write_csv s (Framework.Experiments.loss_series_to_csv s);
  let open Framework.Experiments in
  let results = List.map (fun p -> p.results) s.points in
  let point_loss rs = Engine.Stats.mean (List.map (fun r -> r.loss_seconds) rs) in
  let residual_total =
    List.fold_left (fun acc r -> acc + r.residual_issues) 0 (List.concat results)
  in
  (* Fast-path throughput: every AS fires at the stub's host address
     against one frozen snapshot of the settled (pre-failure) state. *)
  let throughput_stats =
    timed "loss_throughput" (fun () ->
        let spec = Topology.Artificial.failover_backup_chain ~clique_size:nn ~chain_len:2 () in
        let exp = Framework.Experiment.create ~config ~seed:73 spec in
        let stub = Topology.Artificial.stub_asn spec in
        let prefix = Framework.Experiment.default_prefix exp stub in
        ignore
          (Framework.Experiment.measure exp ~prefix (fun () ->
               ignore (Framework.Experiment.announce exp stub)));
        let network = Framework.Experiment.network exp in
        let dp = Framework.Network.dataplane_snapshot network in
        let plan = Framework.Network.plan network in
        let dst_bits = Net.Ipv4.addr_to_bits (plan.Framework.Addressing.host_addr stub) in
        let srcs =
          Array.of_list
            (List.map
               (fun a -> Net.Dataplane.index_of dp (Net.Asn.to_int a))
               (Topology.Spec.asns spec))
        in
        let nsrc = Array.length srcs in
        (* correctness first: the settled network delivers from everywhere *)
        Array.iter
          (fun si ->
            let r = Net.Dataplane.forward dp ~src:si ~dst_bits ~ttl:64 in
            if Net.Dataplane.result_fate r <> Net.Dataplane.Delivered then begin
              Fmt.epr "FATAL: fast path failed to deliver from index %d@." si;
              exit 1
            end)
          srcs;
        let probes = if quick then 1_000_000 else 5_000_000 in
        let sink = ref 0 in
        let before = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for i = 0 to probes - 1 do
          let si = Array.unsafe_get srcs (i mod nsrc) in
          sink := !sink + Net.Dataplane.forward dp ~src:si ~dst_bits ~ttl:64
        done;
        let wall = Unix.gettimeofday () -. t0 in
        let allocd = Gc.minor_words () -. before in
        ignore !sink;
        let probes_per_sec = float_of_int probes /. wall in
        let alloc_per_probe = allocd /. float_of_int probes in
        Fmt.pr "throughput: %.2fM probes/s (%d probes in %.3f s), %.3f minor words/probe@."
          (probes_per_sec /. 1e6) probes wall alloc_per_probe;
        if probes_per_sec < 1e6 then begin
          Fmt.epr "FATAL: fast path under 1M probes/s@.";
          exit 1
        end;
        if alloc_per_probe > 8.0 then begin
          Fmt.epr "FATAL: fast path allocates %.1f minor words/probe@." alloc_per_probe;
          exit 1
        end;
        [
          ("probes", float_of_int probes);
          ("probes_per_sec", probes_per_sec);
          ("alloc_words_per_probe", alloc_per_probe);
        ])
  in
  if residual_total <> 0 then begin
    Fmt.epr "FATAL: verifier found %d residual non-delivered pairs after recovery@."
      residual_total;
    exit 1
  end;
  throughput_stats
  @ [
      ("loss_s_sdn0", point_loss (List.hd results));
      ("loss_s_sdnmax", point_loss (List.hd (List.rev results)));
      ("residual_issues_total", float_of_int residual_total);
      ("identical", 1.0);
    ]

(* --- Bechamel micro-benchmarks ------------------------------------------ *)

let micro () =
  section "MICRO: Bechamel micro-benchmarks (OLS time per run)";
  let open Bechamel in
  let open Toolkit in
  let fast = Framework.Config.fast_test in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    !counter
  in
  (* One Test.make per experiment regenerator (scaled-down instances). *)
  let run_fig2 () =
    Framework.Experiments.clique_run ~n:6 ~sdn:2 ~event:Framework.Experiments.Withdrawal
      ~seed:(fresh ()) ~config:fast ()
  in
  let run_announce () =
    Framework.Experiments.clique_run ~n:6 ~sdn:2 ~event:Framework.Experiments.Announcement
      ~seed:(fresh ()) ~config:fast ()
  in
  let run_failover () =
    Framework.Experiments.failover_run ~n:5 ~sdn:2 ~seed:(fresh ()) ~config:fast ()
  in
  let run_subcluster () =
    Framework.Experiments.subcluster_resilience ~seed:(fresh ()) ~config:fast ()
  in
  let t_fig2 = Test.make ~name:"fig2_withdrawal_point" (Staged.stage run_fig2) in
  let t_announce = Test.make ~name:"announcement_point" (Staged.stage run_announce) in
  let t_failover = Test.make ~name:"failover_point" (Staged.stage run_failover) in
  let t_subcluster = Test.make ~name:"subcluster_resilience" (Staged.stage run_subcluster) in
  (* Core algorithm benchmarks. *)
  let t_as_graph =
    let members = Net.Asn.Set.of_list (List.init 8 (fun i -> Net.Asn.of_int (65010 + i))) in
    let g = Net.Graph.create () in
    Net.Asn.Set.iter (fun m -> Net.Graph.add_node g (Net.Asn.to_int m)) members;
    List.iter (fun i -> Net.Graph.add_edge g (65010 + i) (65010 + i + 1)) (List.init 7 Fun.id);
    let nh = Net.Ipv4.addr_of_octets 10 0 0 1 in
    let routes =
      List.init 16 (fun i ->
          {
            Cluster_ctl.As_graph.member = Net.Asn.of_int (65010 + (i mod 8));
            neighbor = Net.Asn.of_int (65100 + i);
            attrs =
              Bgp.Attrs.make
                ~as_path:(List.init ((i mod 4) + 1) (fun j -> Net.Asn.of_int (65100 + i + j)))
                ~next_hop:nh ();
            rel = Bgp.Policy.Unrestricted;
          })
    in
    Test.make ~name:"as_graph_compute_8members"
      (Staged.stage (fun () ->
           Cluster_ctl.As_graph.compute ~members ~switch_graph:g ~routes
             ~originators:Net.Asn.Set.empty ()))
  in
  let t_decision =
    let nh = Net.Ipv4.addr_of_octets 10 0 0 1 in
    let prefix = Option.get (Net.Ipv4.prefix_of_string "100.64.0.0/24") in
    let routes =
      List.init 16 (fun i ->
          Bgp.Route.make ~prefix
            ~attrs:
              (Bgp.Attrs.make
                 ~as_path:(List.init ((i mod 5) + 1) (fun j -> Net.Asn.of_int (65001 + i + j)))
                 ~local_pref:(90 + (i mod 4 * 10))
                 ~next_hop:nh ())
            ~source:(Bgp.Route.Ebgp (Net.Asn.of_int (65001 + i)))
            ~learned_at:Engine.Time.zero)
    in
    Test.make ~name:"decision_select_16routes"
      (Staged.stage (fun () -> Bgp.Decision.select routes))
  in
  let t_fib =
    let fib = Net.Fib.create () in
    List.iteri
      (fun i () ->
        Net.Fib.insert fib (Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 10 (i mod 256) 0 0) 16) i)
      (List.init 256 (fun _ -> ()));
    let probe = Net.Ipv4.addr_of_octets 10 127 3 4 in
    Test.make ~name:"fib_lookup_256" (Staged.stage (fun () -> Net.Fib.lookup_value fib probe))
  in
  let t_dijkstra =
    let g = Net.Graph.create () in
    for i = 0 to 99 do
      Net.Graph.add_node g i
    done;
    for i = 0 to 98 do
      Net.Graph.add_edge g i (i + 1);
      if i mod 7 = 0 && i + 9 < 100 then Net.Graph.add_edge g i (i + 9)
    done;
    Test.make ~name:"dijkstra_100nodes" (Staged.stage (fun () -> Net.Graph.dijkstra g 0))
  in
  let t_wire_encode, t_wire_decode =
    let nh = Net.Ipv4.addr_of_octets 10 0 0 1 in
    let attrs =
      Bgp.Attrs.make
        ~as_path:(List.init 5 (fun i -> Net.Asn.of_int (65001 + i)))
        ~communities:(Bgp.Community.Set.singleton (Bgp.Community.make 65000 1))
        ~med:10 ~next_hop:nh ()
    in
    let msg =
      Bgp.Message.update
        ~announced:
          (List.init 8 (fun i ->
               (Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 100 64 i 0) 24, attrs)))
        ~withdrawn:[ Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 9 9 0 0) 16 ]
        ()
    in
    let encoded = Bgp.Wire.encode_concat msg in
    ( Test.make ~name:"wire_encode_update8" (Staged.stage (fun () -> Bgp.Wire.encode msg)),
      Test.make ~name:"wire_decode_update8"
        (Staged.stage (fun () -> Bgp.Wire.decode_all encoded)) )
  in
  let tests =
    [ t_fig2; t_announce; t_failover; t_subcluster; t_as_graph; t_decision; t_fib; t_dijkstra;
      t_wire_encode; t_wire_decode ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  (* Warm up the experiment regenerators before sampling: their first
     iterations fault in code paths and take the initial major-GC spikes,
     which previously dragged several fits below r^2 = 0.7 (e.g.
     fib_lookup_256 at 0.62 and as_graph_compute_8members at 0.65 in
     BENCH_pr3.json). *)
  List.iter
    (fun f ->
      for _ = 1 to 3 do
        f ()
      done)
    [
      (fun () -> ignore (run_fig2 ()));
      (fun () -> ignore (run_announce ()));
      (fun () -> ignore (run_failover ()));
      (fun () -> ignore (run_subcluster ()));
    ];
  (* [start] is the minimum-runs floor per sample; a longer [quota] in
     full mode buys enough samples for a stable OLS fit. *)
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ~start:3 ~stabilize:true ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square ols_result) ~default:nan in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Fmt.pr "%-40s %14s %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let time =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%.2f us" (ns /. 1e3)
        else Fmt.str "%.0f ns" ns
      in
      Fmt.pr "%-40s %14s %8.3f%s@." name time r2
        (if Float.is_nan r2 || r2 >= 0.8 then "" else "   WARNING: noisy fit"))
    rows;
  let noisy = List.filter (fun (_, _, r2) -> (not (Float.is_nan r2)) && r2 < 0.8) rows in
  if noisy <> [] then begin
    Fmt.pr "@.WARNING: %d micro-benchmark fit(s) below r^2 = 0.8:@." (List.length noisy);
    List.iter (fun (name, _, r2) -> Fmt.pr "  %-40s r^2 = %.3f@." name r2) noisy;
    Fmt.pr "treat their ns_per_run as indicative only; do not commit them as a baseline@."
  end;
  rows

(* --- machine-readable baseline ------------------------------------------ *)

let series_medians (s : Framework.Experiments.run_result Framework.Experiments.series) =
  List.map
    (fun p -> (p.Framework.Experiments.x, (Framework.Experiments.box p).Engine.Stats.median))
    s.Framework.Experiments.points

let write_baseline path ~fig2_series ~telemetry_tdown ~headline ~micro_rows ~scale_stats
    ~loss_stats =
  let json =
    Json.Obj
      [
        ( "meta",
          Json.Obj
            [
              ("bench", Json.Str "hybridsdn");
              ("quick", Json.Bool quick);
              ("n", Json.Num (float_of_int n));
              ("runs", Json.Num (float_of_int runs));
              ("jobs", Json.Num (float_of_int jobs));
            ] );
        ( "sections",
          Json.Arr
            (List.rev_map
               (fun (name, wall) ->
                 let par =
                   match List.assoc_opt name !sections_par with
                   | Some (wall_par, speedup) ->
                     [ ("wall_par_s", Json.num wall_par); ("speedup", Json.num speedup) ]
                   | None -> []
                 in
                 Json.Obj
                   ((("name", Json.Str name) :: ("wall_s", Json.num wall) :: par)))
               !sections_wall) );
        ( "fig2",
          Json.Arr
            (List.map
               (fun (x, med) ->
                 Json.Obj [ ("sdn", Json.num x); ("tdown_median_s", Json.num med) ])
               (series_medians fig2_series)) );
        ( "headline",
          Json.Obj
            (("telemetry_tdown_s", Json.num telemetry_tdown)
            :: List.map (fun (name, v) -> (name, Json.num v)) headline) );
        ( "micro",
          Json.Arr
            (List.map
               (fun (name, ns, r2) ->
                 Json.Obj
                   [ ("name", Json.Str name); ("ns_per_run", Json.num ns); ("r2", Json.num r2) ])
               micro_rows) );
        ("scale", Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) scale_stats));
        ("loss", Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) loss_stats));
      ]
  in
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "" && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "baseline written to %s@." path

let () =
  Fmt.pr "hybridsdn bench harness (n=%d, runs=%d, jobs=%d%s)@." n runs jobs
    (if quick then ", quick" else "");
  (* Micro-benchmarks run FIRST, on a pristine heap.  Bechamel
     unconditionally compacts the heap until the live-word count settles
     before every test (and, with [stabilize], before every sample) —
     and after the macro sections the major heap holds tens of millions
     of words laced with the attribute interner's weak tables, whose
     entries keep dropping across compactions, so every stabilization
     ran the full 10-compaction cycle at seconds per compaction: the
     section cost ~17 minutes at the tail of the run and its
     nanosecond-scale fits absorbed the inflated cache pressure.  At
     process start the same stabilization is milliseconds.  (The worker
     domains of a --jobs run exist already and add stop-the-world minor
     collections to the sampling noise; the committed baselines run at
     jobs=1, where no worker domains exist.) *)
  let micro_rows = timed "micro" micro in
  let fig2_series = fig2 () in
  timed "rounds" rounds;
  ignore (timed "announce" announce);
  ignore (timed "failover" failover);
  timed "ablation_delay" ablation_delay;
  timed "ablation_mrai" ablation_mrai;
  timed "ablation_wrate" ablation_wrate;
  timed "ablation_speaker_mrai" ablation_speaker_mrai;
  timed "ablation_damping" ablation_damping;
  timed "scaling" scaling;
  placement ();
  timed "churn_load" churn_load;
  timed "table_size" table_size;
  timed "subcluster" subcluster;
  timed "churn" (fun () -> churn fig2_series);
  let telemetry_tdown, headline = timed "telemetry" telemetry in
  let overhead_rows = timed "trace_overhead" causal_overhead in
  let headline = headline @ overhead_rows in
  let scale_stats = timed "scale" scale in
  let loss_stats = loss () in
  Option.iter Engine.Pool.shutdown pool;
  Option.iter
    (fun path ->
      write_baseline path ~fig2_series ~telemetry_tdown ~headline ~micro_rows ~scale_stats
        ~loss_stats)
    out_path;
  Fmt.pr "@.done.@."
