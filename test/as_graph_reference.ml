(* Reference implementation of [Cluster_ctl.As_graph.compute]: the
   original hash-table formulation over [Shortest_paths.dijkstra], kept
   verbatim (minus the arena) as an oracle for the dense-array version.
   Candidate edges live in an [(int * int)]-keyed table, the reversed AS
   topology graph is a [Net.Graph.t] with node 0 as the destination, and
   Dijkstra pops (distance, push sequence) from a heap over sorted
   adjacency lists. *)

open Cluster_ctl.As_graph

let dest_id = 0

let subcluster_table members switch_graph =
  let components = Net.Graph.components switch_graph in
  let table = Hashtbl.create 16 in
  List.iteri (fun i comp -> List.iter (fun v -> Hashtbl.replace table v i) comp) components;
  let next = ref (List.length components) in
  Net.Asn.Set.iter
    (fun m ->
      let id = Net.Asn.to_int m in
      if not (Hashtbl.mem table id) then begin
        Hashtbl.replace table id !next;
        incr next
      end)
    members;
  table

type edge_kind =
  | K_intra
  | K_exit of exit_route
  | K_bridge of { via_neighbor : Net.Asn.t; to_member : Net.Asn.t; segment : Net.Asn.t list;
                  rel : Bgp.Policy.relationship }
  | K_local

let compute ~members ~switch_graph ~(routes : exit_route list) ~originators () =
  let table = subcluster_table members switch_graph in
  let subcluster_of asn = Hashtbl.find_opt table (Net.Asn.to_int asn) in
  let edges : (int * int, float * edge_kind) Hashtbl.t = Hashtbl.create 64 in
  let consider u v w kind =
    match Hashtbl.find_opt edges (u, v) with
    | Some (w', _) when w' <= w -> ()
    | Some _ | None -> Hashtbl.replace edges (u, v) (w, kind)
  in
  List.iter
    (fun (u, v, _) ->
      consider u v 1.0 K_intra;
      consider v u 1.0 K_intra)
    (Net.Graph.edges switch_graph);
  Net.Asn.Set.iter (fun o -> consider (Net.Asn.to_int o) dest_id 0.0 K_local) originators;
  List.iter
    (fun (r : exit_route) ->
      if Net.Asn.Set.mem r.member members then begin
        let m = Net.Asn.to_int r.member in
        let path = Bgp.Attrs.as_path r.attrs in
        match classify_path members path with
        | `External -> consider m dest_id (float_of_int (List.length path)) (K_exit r)
        | `Reenters (segment, c) ->
          let same_subcluster =
            match (subcluster_of r.member, subcluster_of c) with
            | Some a, Some b -> a = b
            | _, _ -> true
          in
          if (not same_subcluster) && not (Net.Asn.equal c r.member) then
            consider m (Net.Asn.to_int c)
              (float_of_int (List.length segment))
              (K_bridge { via_neighbor = r.neighbor; to_member = c; segment; rel = r.rel })
      end)
    routes;
  let reversed = Net.Graph.create ~directed:true () in
  Net.Graph.add_node reversed dest_id;
  Net.Asn.Set.iter (fun m -> Net.Graph.add_node reversed (Net.Asn.to_int m)) members;
  Hashtbl.iter (fun (u, v) (w, _) -> Net.Graph.add_edge ~w reversed v u) edges;
  let dist, succ = Shortest_paths.dijkstra reversed dest_id in
  let memo : (int, Net.Asn.t list * Bgp.Policy.route_provenance) Hashtbl.t = Hashtbl.create 16 in
  let rec path_of m =
    match Hashtbl.find_opt memo m with
    | Some r -> r
    | None ->
      let s = Hashtbl.find succ m in
      let _, kind = Hashtbl.find edges (m, s) in
      let result =
        match kind with
        | K_local -> ([], Bgp.Policy.Originated)
        | K_exit r -> (Bgp.Attrs.as_path r.attrs, Bgp.Policy.From r.rel)
        | K_intra ->
          let rest, prov = path_of s in
          (Net.Asn.of_int s :: rest, prov)
        | K_bridge { segment; rel; to_member; _ } ->
          let rest, _ = path_of (Net.Asn.to_int to_member) in
          (segment @ rest, Bgp.Policy.From rel)
      in
      Hashtbl.replace memo m result;
      result
  in
  Net.Asn.Set.fold
    (fun member acc ->
      let m = Net.Asn.to_int member in
      match Hashtbl.find_opt dist m with
      | None -> acc
      | Some distance ->
        let s = Hashtbl.find succ m in
        let _, kind = Hashtbl.find edges (m, s) in
        let hop =
          match kind with
          | K_local -> Deliver_local
          | K_exit r -> Exit { neighbor = r.neighbor }
          | K_intra -> Intra { next_member = Net.Asn.of_int s }
          | K_bridge { via_neighbor; to_member; _ } -> Bridge { via_neighbor; to_member }
        in
        let as_path, provenance = path_of m in
        Net.Asn.Map.add member { member; hop; as_path; distance; provenance } acc)
    members Net.Asn.Map.empty
