(* Text formats: scenario files and collector dumps. *)

let asn = Topology.Artificial.asn

let p s = Option.get (Net.Ipv4.prefix_of_string s)

(* --- Scenario text ------------------------------------------------------- *)

let scenario_text =
  "# demo scenario\n\
   @0.5 announce AS65001\n\
   @2.0 announce AS65002 100.99.0.0/24\n\
   @10.0 fail-link AS65001 AS65002\n\
   @20.0 recover-link AS65001 AS65002\n\
   @25.0 crash AS65002\n\
   @30.0 withdraw AS65001\n\
   @31.0 note measurement window ends\n"

let test_scenario_parse () =
  match Framework.Scenario.parse_string scenario_text with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let steps = Framework.Scenario.steps s in
    Alcotest.(check int) "step count" 7 (List.length steps);
    (match steps with
    | first :: _ -> (
      Alcotest.(check int) "first at 0.5s" 500_000
        (Engine.Time.to_us first.Framework.Scenario.at);
      match first.Framework.Scenario.action with
      | Framework.Scenario.Announce (a, None) ->
        Alcotest.(check int) "announce AS" 65001 (Net.Asn.to_int a)
      | _ -> Alcotest.fail "first action should be a default-prefix announce")
    | [] -> Alcotest.fail "no steps");
    let with_prefix =
      List.exists
        (fun (st : Framework.Scenario.step) ->
          match st.Framework.Scenario.action with
          | Framework.Scenario.Announce (_, Some pre) ->
            Net.Ipv4.equal_prefix pre (p "100.99.0.0/24")
          | _ -> false)
        steps
    in
    Alcotest.(check bool) "explicit prefix parsed" true with_prefix

let test_scenario_roundtrip () =
  match Framework.Scenario.parse_string scenario_text with
  | Error e -> Alcotest.fail e
  | Ok s -> (
    let rendered = Framework.Scenario.render s in
    match Framework.Scenario.parse_string rendered with
    | Error e -> Alcotest.failf "re-parse failed: %s" e
    | Ok s2 ->
      Alcotest.(check int) "same step count"
        (List.length (Framework.Scenario.steps s))
        (List.length (Framework.Scenario.steps s2));
      Alcotest.(check string) "stable render" rendered (Framework.Scenario.render s2))

let test_scenario_parse_errors () =
  let bad_cases =
    [ "@x announce AS65001"; "@1.0 announce"; "@1.0 explode AS65001"; "announce AS65001";
      "@1.0 announce AS65001 999.0.0.0/8"; "@1.0 fail-link AS65001" ]
  in
  List.iter
    (fun text ->
      match Framework.Scenario.parse_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %S" text)
    bad_cases

let test_scenario_executes_parsed () =
  let text = "@1.0 announce AS65001\n@40.0 withdraw AS65001\n" in
  let scenario =
    match Framework.Scenario.parse_string text with Ok s -> s | Error e -> Alcotest.fail e
  in
  let exp =
    Framework.Experiment.create ~config:Framework.Config.fast_test ~seed:41
      (Topology.Artificial.clique 3)
  in
  let log = Framework.Scenario.run exp scenario in
  Alcotest.(check int) "both actions ran" 2 (List.length log);
  let net = Framework.Experiment.network exp in
  let r = Option.get (Framework.Network.router net (asn 1)) in
  Alcotest.(check bool) "withdrawn at the end" true
    (Bgp.Router.best r (Framework.Experiment.default_prefix exp (asn 0)) = None)

(* --- Collector dumps ------------------------------------------------------ *)

let make_collector_with_events () =
  let sim = Engine.Sim.create () in
  let collector =
    Bgp.Collector.create ~sim ~asn:(Net.Asn.of_int 64000)
      ~router_id:(Net.Ipv4.addr_of_octets 10 9 9 9)
      ~send:(fun ~dst:_ _ -> true)
      ()
  in
  Bgp.Collector.add_peer collector ~peer_asn:(Net.Asn.of_int 65001) ~peer_node:1;
  let attrs path =
    Bgp.Attrs.make
      ~as_path:(List.map Net.Asn.of_int path)
      ~next_hop:(Net.Ipv4.addr_of_octets 10 0 0 1)
      ()
  in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () ->
         Bgp.Collector.handle_message collector ~from:1
           (Bgp.Message.update
              ~announced:[ (p "100.64.0.0/24", attrs [ 65001; 65002 ]) ]
              ())));
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 1500) (fun () ->
         Bgp.Collector.handle_message collector ~from:1
           (Bgp.Message.update ~withdrawn:[ p "100.64.0.0/24" ] ())));
  ignore (Engine.Sim.run sim);
  collector

let test_dump_roundtrip () =
  let collector = make_collector_with_events () in
  let text = Bgp.Collector.dump collector in
  match Bgp.Collector.parse_dump text with
  | Error e -> Alcotest.fail e
  | Ok events ->
    Alcotest.(check int) "two events" 2 (List.length events);
    (match events with
    | [ a; w ] ->
      Alcotest.(check int) "announce time" 5_000 (Engine.Time.to_us a.Bgp.Collector.time);
      (match a.Bgp.Collector.action with
      | Bgp.Collector.Announce attrs ->
        Alcotest.(check (list int)) "path preserved" [ 65001; 65002 ]
          (List.map Net.Asn.to_int (Bgp.Attrs.as_path attrs))
      | Bgp.Collector.Withdraw -> Alcotest.fail "first should be announce");
      Alcotest.(check bool) "second is withdraw" true
        (w.Bgp.Collector.action = Bgp.Collector.Withdraw)
    | _ -> Alcotest.fail "expected exactly two")

let test_dump_parse_errors () =
  List.iter
    (fun text ->
      match Bgp.Collector.parse_dump text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %S" text)
    [ "garbage"; "5|65001|X|100.64.0.0/24|"; "5|65001|A|not-a-prefix|65001" ]

(* --- Telemetry validation and finish hardening --------------------------- *)

module Tel = Framework.Telemetry

let format_t =
  Alcotest.testable
    (fun ppf f -> Fmt.string ppf (Tel.format_to_string f))
    (fun a b -> a = b)

let test_format_of_path_edges () =
  Alcotest.(check format_t) "uppercase extension" Tel.Prometheus
    (Tel.format_of_path "metrics.PROM");
  Alcotest.(check format_t) "mixed-case csv" Tel.Csv (Tel.format_of_path "out.CsV");
  Alcotest.(check format_t) "txt is prometheus" Tel.Prometheus
    (Tel.format_of_path "metrics.txt");
  Alcotest.(check format_t) "no extension defaults to jsonl" Tel.Jsonl
    (Tel.format_of_path "metrics");
  Alcotest.(check format_t) "trailing dot defaults to jsonl" Tel.Jsonl
    (Tel.format_of_path "metrics.");
  Alcotest.(check format_t) "unknown extension defaults to jsonl" Tel.Jsonl
    (Tel.format_of_path "metrics.data")

let check_invalid what = function
  | Ok _ -> Alcotest.fail (what ^ ": malformed input validated as Ok")
  | Error _ -> ()

let test_validate_malformed () =
  (* Truncated CSV header. *)
  check_invalid "truncated csv header" (Tel.validate Tel.Csv "time,na");
  check_invalid "empty csv" (Tel.validate Tel.Csv "");
  (* Bad JSONL lines. *)
  check_invalid "unterminated object" (Tel.validate Tel.Jsonl "{\"a\": 1");
  check_invalid "bare value line" (Tel.validate Tel.Jsonl "{\"a\":1}\nnot json\n");
  check_invalid "trailing garbage" (Tel.validate Tel.Jsonl "{\"a\":1} extra");
  check_invalid "bad escape" (Tel.validate Tel.Jsonl "{\"a\":\"\\x\"}");
  Alcotest.(check bool) "non-object jsonl line rejected" true
    (Result.is_error (Tel.validate Tel.Jsonl "[1,2,3]"));
  (* Prometheus parse errors. *)
  check_invalid "prometheus garbage" (Tel.validate Tel.Prometheus "!!!not metrics");
  check_invalid "prometheus bad value"
    (Tel.validate Tel.Prometheus "metric_a{label=\"x\"} notanumber");
  (* Well-formed inputs still pass. *)
  (match Tel.validate Tel.Jsonl "{\"a\":1}\n{\"b\":[true,null]}\n" with
  | Ok n -> Alcotest.(check int) "jsonl lines counted" 2 n
  | Error e -> Alcotest.fail ("valid jsonl rejected: " ^ e))

let test_validate_file_malformed () =
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let dir = Filename.temp_file "telemetry_validate" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  check_invalid "csv file with truncated header"
    (Tel.validate_file (write (Filename.concat dir "bad.csv") "time,na\n1,2\n"));
  check_invalid "jsonl file with bad line"
    (Tel.validate_file (write (Filename.concat dir "bad.jsonl") "{\"a\":1}\n{oops\n"));
  check_invalid "prom file with parse error"
    (Tel.validate_file (write (Filename.concat dir "bad.prom") "{{{\n"))

(* finish reports write errors instead of raising, and double-finish can
   never duplicate the final snapshot. *)
let test_finish_reports_errors_and_is_idempotent () =
  let sim = Engine.Sim.create ~seed:1 () in
  let bad = Tel.create ~sim ~path:"/nonexistent-dir-for-test/metrics.jsonl" () in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.sec 3) ignore);
  ignore (Engine.Sim.run sim);
  (match Tel.finish bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write into a missing directory must be an Error");
  Alcotest.(check bool) "sink is closed after a failed write" true (Tel.closed bad);
  let path = Filename.temp_file "telemetry_finish" ".jsonl" in
  let sim2 = Engine.Sim.create ~seed:2 () in
  let sink = Tel.create ~sim:sim2 ~path () in
  ignore (Engine.Sim.schedule_at sim2 (Engine.Time.sec 3) ignore);
  ignore (Engine.Sim.run sim2);
  Tel.close sink;
  let n1 =
    match Tel.finish sink with
    | Ok n -> n
    | Error e -> Alcotest.fail ("finish failed: " ^ e)
  in
  let n2 =
    match Tel.finish sink with
    | Ok n -> n
    | Error e -> Alcotest.fail ("second finish failed: " ^ e)
  in
  Alcotest.(check int) "double finish adds no snapshot" n1 n2;
  Alcotest.(check int) "snapshot list is stable" n1 (List.length (Tel.snapshots sink));
  (match Tel.validate_file path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("rewritten file invalid: " ^ e));
  Sys.remove path

let suite =
  [
    Alcotest.test_case "scenario parse" `Quick test_scenario_parse;
    Alcotest.test_case "scenario roundtrip" `Quick test_scenario_roundtrip;
    Alcotest.test_case "scenario parse errors" `Quick test_scenario_parse_errors;
    Alcotest.test_case "scenario executes parsed" `Quick test_scenario_executes_parsed;
    Alcotest.test_case "collector dump roundtrip" `Quick test_dump_roundtrip;
    Alcotest.test_case "collector dump errors" `Quick test_dump_parse_errors;
    Alcotest.test_case "format_of_path edge cases" `Quick test_format_of_path_edges;
    Alcotest.test_case "validate rejects malformed inputs" `Quick test_validate_malformed;
    Alcotest.test_case "validate_file rejects malformed files" `Quick
      test_validate_file_malformed;
    Alcotest.test_case "finish error reporting + idempotency" `Quick
      test_finish_reports_errors_and_is_idempotent;
  ]
