(* Framework.Visualize: dot export and ASCII rendering. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  n > 0 && scan 0

let test_dot_contains_components () =
  let spec =
    Topology.Spec.with_sdn (Topology.Artificial.clique 4)
      [ Topology.Artificial.asn 2; Topology.Artificial.asn 3 ]
  in
  let dot = Framework.Visualize.spec_to_dot spec in
  Alcotest.(check bool) "graph header" true (contains dot "graph hybrid {");
  Alcotest.(check bool) "legacy node" true (contains dot "\"AS65001\"");
  Alcotest.(check bool) "sdn node is a box" true (contains dot "shape=box");
  Alcotest.(check bool) "collector present" true (contains dot "collector");
  Alcotest.(check bool) "controller present" true (contains dot "controller");
  Alcotest.(check bool) "speaker labeled" true (contains dot "cluster BGP speaker")

let test_dot_without_infrastructure () =
  let spec = Topology.Artificial.clique 3 in
  let dot = Framework.Visualize.spec_to_dot ~with_infrastructure:false spec in
  Alcotest.(check bool) "no collector" false (contains dot "collector")

let test_dot_relationship_styles () =
  let asn = Topology.Artificial.asn in
  let spec =
    Topology.Spec.make ~title:"rels"
      ~nodes:[ Topology.Spec.node (asn 0); Topology.Spec.node (asn 1); Topology.Spec.node (asn 2) ]
      ~links:
        [
          Topology.Spec.link ~rel:Topology.Spec.C2p (asn 0) (asn 1);
          Topology.Spec.link ~rel:Topology.Spec.P2p (asn 1) (asn 2);
        ]
  in
  let dot = Framework.Visualize.spec_to_dot ~with_infrastructure:false spec in
  Alcotest.(check bool) "c2p arrow" true (contains dot "c2p");
  Alcotest.(check bool) "p2p dashed" true (contains dot "p2p")

let test_ascii_boxplot () =
  let results =
    List.map
      (fun s ->
        { Framework.Experiments.seconds = s; changes = 1; collector_updates = 1;
          restore_mean = nan; restore_max = nan;
          metrics = { Engine.Metrics.at = Engine.Time.zero; samples = [] } })
  in
  let point x secs = { Framework.Experiments.x; results = results secs } in
  let series =
    {
      Framework.Experiments.label = "test-series";
      points = [ point 0.0 [ 10.0; 12.0; 14.0 ]; point 2.0 [ 5.0; 6.0; 7.0 ] ];
    }
  in
  let out = Framework.Visualize.series_to_ascii series in
  Alcotest.(check bool) "label shown" true (contains out "test-series");
  Alcotest.(check bool) "median marker" true (contains out "#");
  Alcotest.(check bool) "box body" true (contains out "=");
  Alcotest.(check bool) "medians annotated" true (contains out "med=12.0")

let test_timeline () =
  let exp =
    Framework.Experiment.create ~config:Framework.Config.fast_test ~seed:21
      (Topology.Artificial.clique 3)
  in
  let origin = Topology.Artificial.asn 0 in
  let prefix = Framework.Experiment.default_prefix exp origin in
  let w = Framework.Experiment.watcher exp in
  Alcotest.(check string) "nothing before the announcement" ""
    (Framework.Visualize.timeline w prefix);
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp origin)));
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (Framework.Visualize.timeline w prefix))
  in
  Alcotest.(check int) "a line per change"
    (Framework.Convergence.control_changes w prefix)
    (List.length lines);
  Alcotest.(check bool) "the origin's own change comes first" true
    (contains (List.hd lines) (Net.Asn.to_string origin))

let suite =
  [
    Alcotest.test_case "dot components" `Quick test_dot_contains_components;
    Alcotest.test_case "dot without infrastructure" `Quick test_dot_without_infrastructure;
    Alcotest.test_case "dot relationship styles" `Quick test_dot_relationship_styles;
    Alcotest.test_case "ascii boxplot" `Quick test_ascii_boxplot;
    Alcotest.test_case "timeline" `Quick test_timeline;
  ]
