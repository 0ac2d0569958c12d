(* Looking glass: human-readable state dumps — the "show ip bgp" /
   "show flows" surface an experimenter pokes at between scenario steps. *)

let buffer_with f = Fmt.str "%t" f

(* "show ip bgp" for one emulated AS router. *)
let router_rib router =
  buffer_with (fun ppf ->
      Fmt.pf ppf "%s  loc-rib (%d prefixes, adj-in %d routes)@."
        (Bgp.Router.name router) (Bgp.Router.loc_size router)
        (Bgp.Router.adj_in_size router);
      List.iter
        (fun (prefix, route) ->
          let attrs = Bgp.Route.attrs route in
          Fmt.pf ppf "  %-18s via %-12s lp=%-3d path [%a]@."
            (Net.Ipv4.prefix_to_string prefix)
            (match Bgp.Route.from_peer route with
            | Some p -> Net.Asn.to_string p
            | None -> "local")
            attrs.Bgp.Attrs.local_pref Bgp.Attrs.pp_path (Bgp.Attrs.as_path attrs);
          (* alternates, best first *)
          let alternates =
            List.filter
              (fun r -> Bgp.Route.neighbor r <> Bgp.Route.neighbor route)
              (Bgp.Router.candidates router prefix)
          in
          List.iter
            (fun r ->
              Fmt.pf ppf "    alt via %-12s path [%a]@."
                (match Bgp.Route.from_peer r with
                | Some p -> Net.Asn.to_string p
                | None -> "local")
                Bgp.Attrs.pp_path
                (Bgp.Attrs.as_path (Bgp.Route.attrs r)))
            alternates)
        (Bgp.Router.loc_entries router))

(* Flow table of an SDN member's switch. *)
let switch_flows sw =
  buffer_with (fun ppf ->
      let table = Sdn.Switch.table sw in
      Fmt.pf ppf "%s  flow table (%d rules)@."
        (Net.Asn.to_string (Sdn.Switch.asn sw))
        (Sdn.Flow_table.size table);
      List.iter
        (fun rule -> Fmt.pf ppf "  %a@." Sdn.Flow.pp rule)
        (Sdn.Flow_table.rules table))

(* The controller's per-prefix decisions and sub-cluster view. *)
let controller_state ctrl =
  buffer_with (fun ppf ->
      let g = Cluster_ctl.Controller.switch_graph ctrl in
      let stats = Cluster_ctl.Controller.stats ctrl in
      Fmt.pf ppf
        "controller  members=%d sub-clusters=%d updates-in=%d recomputes=%d flow-mods=%d@."
        (List.length (Cluster_ctl.Controller.members ctrl))
        (List.length (Net.Graph.components g))
        stats.Cluster_ctl.Controller.updates_in stats.Cluster_ctl.Controller.recompute_batches
        stats.Cluster_ctl.Controller.flow_mods;
      List.iter
        (fun prefix ->
          Fmt.pf ppf "  %s@." (Net.Ipv4.prefix_to_string prefix);
          Net.Asn.Map.iter
            (fun _ d -> Fmt.pf ppf "    %a@." Cluster_ctl.As_graph.pp_decision d)
            (Cluster_ctl.Controller.decisions_for ctrl prefix))
        (Cluster_ctl.Controller.known_prefixes ctrl))

(* Everything: the full network's control- and data-plane state. *)
let network_state network =
  buffer_with (fun ppf ->
      Fmt.pf ppf "=== looking glass at %a ===@." Engine.Time.pp (Network.now network);
      Net.Asn.Map.iter
        (fun _ router -> Fmt.pf ppf "%s" (router_rib router))
        (Network.routers network);
      List.iter
        (fun asn ->
          match Network.switch network asn with
          | Some sw -> Fmt.pf ppf "%s" (switch_flows sw)
          | None -> ())
        (Network.sdn_asns network);
      (match Network.controller network with
      | Some ctrl -> Fmt.pf ppf "%s" (controller_state ctrl)
      | None -> ());
      let collector = Network.collector network in
      Fmt.pf ppf "collector  %d updates recorded@." (Bgp.Collector.event_count collector))
