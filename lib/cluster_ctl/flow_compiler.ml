(* Compile AS-graph decisions into per-switch flow rules and diff them
   against what is installed, emitting only the necessary FLOW_MODs. *)

module Pm = Net.Ipv4.Prefix_map

(* Desired forwarding action at a member's switch for one prefix; none
   for local delivery, which the member's local delivery set covers. *)
let action_of_decision ~node_of_asn (d : As_graph.decision) =
  match d.As_graph.hop with
  | As_graph.Deliver_local -> None
  | As_graph.Exit { neighbor } -> Option.map (fun n -> Sdn.Flow.Output n) (node_of_asn neighbor)
  | As_graph.Intra { next_member } ->
    Option.map (fun n -> Sdn.Flow.Output n) (node_of_asn next_member)
  | As_graph.Bridge { via_neighbor; _ } ->
    Option.map (fun n -> Sdn.Flow.Output n) (node_of_asn via_neighbor)

type change = {
  member : Net.Asn.t;
  mods : Sdn.Openflow.t list; (* FLOW_MODs to send to this member's switch *)
}

(* [installed]: what each member's switch currently has for this prefix.
   [desired]: the new decisions.  Returns the per-member FLOW_MODs and the
   new installed state. *)
let diff ?hard_timeout ~prefix ~node_of_asn ~(members : Net.Asn.t list)
    ~(installed : Sdn.Flow.action Net.Asn.Map.t) ~(desired : As_graph.decision Net.Asn.Map.t)
    () =
  let changes = ref [] in
  let new_installed = ref Net.Asn.Map.empty in
  List.iter
    (fun member ->
      let want =
        Option.bind (Net.Asn.Map.find_opt member desired) (action_of_decision ~node_of_asn)
      in
      let have = Net.Asn.Map.find_opt member installed in
      let mods =
        match (want, have) with
        | Some w, Some h when Sdn.Flow.action_equal w h -> []
        | Some w, (Some _ | None) ->
          [ Sdn.Openflow.Flow_mod
              {
                command = Sdn.Openflow.Add;
                rule = Sdn.Flow.make ?hard_timeout ~match_prefix:prefix w;
              } ]
        | None, Some h ->
          [ Sdn.Openflow.Flow_mod
              { command = Sdn.Openflow.Delete;
                rule = Sdn.Flow.make ~match_prefix:prefix h } ]
        | None, None -> []
      in
      (match want with
      | Some w -> new_installed := Net.Asn.Map.add member w !new_installed
      | None -> ());
      if mods <> [] then changes := { member; mods } :: !changes)
    members;
  (List.rev !changes, !new_installed)
