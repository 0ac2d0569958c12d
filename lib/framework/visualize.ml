(* Visualization: Graphviz dot export of experiment component graphs (the
   paper's Fig. 1 equivalent), ASCII boxplot rendering for sweep results,
   and route-change timelines. *)

(* Dot graph of a topology spec: SDN members as boxes inside the cluster,
   legacy routers as ellipses, the collector and the controller/speaker
   node with their monitoring/control edges. *)
let spec_to_dot ?(with_infrastructure = true) spec =
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  add "graph hybrid {\n";
  add "  layout=neato; overlap=false; splines=true;\n";
  add "  node [fontname=\"Helvetica\"];\n";
  List.iter
    (fun (n : Topology.Spec.node_spec) ->
      let shape, color =
        match n.Topology.Spec.role with
        | Topology.Spec.Sdn -> ("box", "lightblue")
        | Topology.Spec.Legacy -> ("ellipse", "white")
      in
      add "  \"%s\" [shape=%s style=filled fillcolor=%s];\n" n.Topology.Spec.name shape color)
    (Topology.Spec.nodes spec);
  let name_of asn =
    match Topology.Spec.find_node spec asn with
    | Some n -> n.Topology.Spec.name
    | None -> Net.Asn.to_string asn
  in
  List.iter
    (fun (l : Topology.Spec.link_spec) ->
      let style =
        match l.Topology.Spec.rel with
        | Topology.Spec.C2p -> "[dir=forward arrowhead=normal label=\"c2p\"]"
        | Topology.Spec.P2p -> "[style=dashed label=\"p2p\"]"
        | Topology.Spec.S2s -> "[style=dotted label=\"s2s\"]"
        | Topology.Spec.Open -> "[]"
      in
      add "  \"%s\" -- \"%s\" %s;\n" (name_of l.Topology.Spec.a) (name_of l.Topology.Spec.b)
        style)
    (Topology.Spec.links spec);
  if with_infrastructure then begin
    add "  \"collector\" [shape=cylinder style=filled fillcolor=lightyellow];\n";
    List.iter
      (fun (n : Topology.Spec.node_spec) ->
        add "  \"collector\" -- \"%s\" [style=dotted color=gray];\n" n.Topology.Spec.name)
      (Topology.Spec.nodes spec);
    if Topology.Spec.sdn_asns spec <> [] then begin
      add "  \"controller\\n+ cluster BGP speaker\" [shape=component style=filled fillcolor=lightpink];\n";
      List.iter
        (fun asn ->
          add "  \"controller\\n+ cluster BGP speaker\" -- \"%s\" [style=bold color=red];\n"
            (name_of asn))
        (Topology.Spec.sdn_asns spec)
    end
  end;
  add "}\n";
  Buffer.contents buf

(* ASCII boxplot chart for a sweep series: one row per point, the box
   drawn over a fixed-width scale. *)
let series_to_ascii ?(width = 56) (s : Experiments.run_result Experiments.series) =
  let buf = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let maxv =
    List.fold_left
      (fun acc p -> Float.max acc (Experiments.box p).Engine.Stats.maximum)
      0.0 s.Experiments.points
  in
  let maxv = if maxv <= 0.0 then 1.0 else maxv in
  let col v = int_of_float (v /. maxv *. float_of_int (width - 1)) in
  add "%s (convergence seconds, scale 0..%.1f)\n" s.Experiments.label maxv;
  List.iter
    (fun (p : Experiments.run_result Experiments.point) ->
      let b = Experiments.box p in
      let line = Bytes.make width ' ' in
      let put i c = if i >= 0 && i < width then Bytes.set line i c in
      let lo = col b.Engine.Stats.minimum
      and q1 = col b.Engine.Stats.q1
      and md = col b.Engine.Stats.median
      and q3 = col b.Engine.Stats.q3
      and hi = col b.Engine.Stats.maximum in
      for i = lo to hi do
        put i '-'
      done;
      for i = q1 to q3 do
        put i '='
      done;
      put lo '|';
      put hi '|';
      put md '#';
      add "%6.1f %s med=%.1f\n" p.Experiments.x (Bytes.to_string line) b.Engine.Stats.median)
    s.Experiments.points;
  Buffer.contents buf

(* Route-change timeline for a prefix, from the watcher's change history. *)
let timeline watcher prefix =
  let buf = Buffer.create 512 in
  List.iter
    (fun (time, asn) ->
      Buffer.add_string buf
        (Fmt.str "%.3fs %a route change\n" (Engine.Time.to_sec_f time) Net.Asn.pp asn))
    (Convergence.history watcher prefix);
  Buffer.contents buf
