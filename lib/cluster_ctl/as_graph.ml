(* The per-prefix AS topology graph and its route selection.

   This is the paper's key algorithmic insight: the controller cannot
   reuse BGP's AS-path loop avoidance because it makes one centralized
   decision for many ASes.  Instead, for every destination prefix it
   transforms the *switch graph* (physical intra-cluster topology) into an
   *AS topology graph* and runs Dijkstra on it:

   - member<->member intra-cluster links become weight-1 edges;
   - an external route learned at member [m] from neighbor [n] whose
     AS path contains no cluster member becomes an exit edge
     m -> destination with weight |path|;
   - an external route whose AS path re-enters the cluster is dangerous:
     if the first cluster member [c] on the path belongs to m's *own*
     sub-cluster the route is discarded (using it could form a forwarding
     loop the AS-path cannot reveal, since the controller routes all of
     the sub-cluster); if [c] belongs to a *different* sub-cluster it
     becomes a legacy-bridge edge m -> c weighted by the legacy segment
     length — this is what keeps disjoint sub-clusters mutually reachable
     over the legacy world (design goal 3 of the paper);
   - a member originating the prefix gets a weight-0 edge to the
     destination.

   Routes are then read off the Dijkstra successor tree, which is acyclic
   by construction — the loop-freedom the transformation exists to
   provide. *)

module Pm = Net.Ipv4.Prefix_map

type exit_route = {
  member : Net.Asn.t;
  neighbor : Net.Asn.t;
  attrs : Bgp.Attrs.t;
  rel : Bgp.Policy.relationship; (* our relationship toward [neighbor] *)
}

type hop =
  | Deliver_local
  | Exit of { neighbor : Net.Asn.t }
  | Intra of { next_member : Net.Asn.t }
  | Bridge of { via_neighbor : Net.Asn.t; to_member : Net.Asn.t }

type decision = {
  member : Net.Asn.t;
  hop : hop;
  as_path : Net.Asn.t list; (* from this member to the origin, member excluded *)
  distance : float;
  provenance : Bgp.Policy.route_provenance;
}

(* Split an AS path at its first cluster member: [`External] when it never
   enters the cluster, [`Reenters (segment, c)] with the legacy segment
   up to and including [c] otherwise. *)
let classify_path members path =
  let rec scan acc = function
    | [] -> `External
    | asn :: rest ->
      if Net.Asn.Set.mem asn members then `Reenters (List.rev (asn :: acc), asn)
      else scan (asn :: acc) rest
  in
  scan [] path

type edge_kind =
  | K_intra
  | K_exit of exit_route
  | K_bridge of { via_neighbor : Net.Asn.t; to_member : Net.Asn.t; segment : Net.Asn.t list;
                  rel : Bgp.Policy.relationship }
  | K_local

(* Dense working state for [compute].  Node 0 is the virtual destination
   and nodes 1..k are the members in ascending ASN order, so index order
   is the id order the sorted-adjacency Dijkstra used to relax in.  The
   member index, the sub-cluster ids and the intra-cluster adjacency are
   derived once per (member set, switch graph, version) and reused by
   every prefix of a batch; the per-prefix arrays are sized (k+1)^2 and
   (k+1) and refilled, never reallocated, while k stays the same. *)
type arena = {
  mutable a_key : (Net.Asn.Set.t * Net.Graph.t * int) option;
      (* member set, switch graph (physical identity) and its version *)
  mutable a_n : int; (* k + 1 *)
  mutable a_asns : Net.Asn.t array; (* ascending members: index i + 1 at slot i *)
  mutable a_sub : int array; (* index -> sub-cluster id *)
  mutable a_intra : (int * int) list; (* (u, v) index pairs, sorted edge order *)
  mutable a_w : int array; (* a_w.(u * n + v): weight of u -> v, -1 when absent *)
  mutable a_kind : edge_kind array; (* what realizes that edge, where a_w >= 0 *)
  mutable a_dist : int array;
  mutable a_seq : int array; (* relaxation sequence of the current distance *)
  mutable a_succ : int array; (* next node toward the destination *)
  mutable a_state : int array; (* 0 unreached, 1 reached, 2 settled *)
  mutable a_memo : (Net.Asn.t list * Bgp.Policy.route_provenance) option array;
}

let create_arena () =
  {
    a_key = None;
    a_n = 0;
    a_asns = [||];
    a_sub = [||];
    a_intra = [];
    a_w = [||];
    a_kind = [||];
    a_dist = [||];
    a_seq = [||];
    a_succ = [||];
    a_state = [||];
    a_memo = [||];
  }

(* Index of a member ASN (1..k), or -1 for a non-member. *)
let index_of a asn =
  let asns = a.a_asns in
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = (Array.unsafe_get asns mid :> int) in
      if x = asn then mid + 1 else if x < asn then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length asns)

(* Rebuild the member index, sub-cluster ids and intra adjacency. *)
let prepare a members switch_graph =
  let asns = Array.of_list (Net.Asn.Set.elements members) in
  let k = Array.length asns in
  let n = k + 1 in
  a.a_asns <- asns;
  a.a_intra <-
    List.filter_map
      (fun (u, v, _) ->
        let iu = index_of a u and iv = index_of a v in
        if iu > 0 && iv > 0 then Some (iu, iv) else None)
      (Net.Graph.edges switch_graph);
  (* Sub-clusters are the switch graph's components; a member missing
     from the graph is a sub-cluster of its own. *)
  let sub = Array.init n (fun i -> -i) in
  List.iteri
    (fun c comp ->
      List.iter
        (fun v ->
          let i = index_of a v in
          if i > 0 then sub.(i) <- c + 1)
        comp)
    (Net.Graph.components switch_graph);
  a.a_sub <- sub;
  if n <> a.a_n then begin
    a.a_n <- n;
    a.a_w <- Array.make (n * n) (-1);
    a.a_kind <- Array.make (n * n) K_intra;
    a.a_dist <- Array.make n 0;
    a.a_seq <- Array.make n 0;
    a.a_succ <- Array.make n 0;
    a.a_state <- Array.make n 0;
    a.a_memo <- Array.make n None
  end;
  a.a_key <- Some (members, switch_graph, Net.Graph.version switch_graph)

let refresh a members switch_graph =
  match a.a_key with
  | Some (ms, g, v)
    when g == switch_graph
         && v = Net.Graph.version switch_graph
         && (ms == members || Net.Asn.Set.equal ms members) -> ()
  | Some _ | None -> prepare a members switch_graph

let member_at a i = a.a_asns.(i - 1)

(* The first member on an AS path: its index and the legacy segment up to
   and including it, or index -1 when the path never enters the cluster. *)
let first_member a path =
  let rec scan acc = function
    | [] -> (-1, [])
    | asn :: rest ->
      let i = index_of a (Net.Asn.to_int asn) in
      if i > 0 then (i, List.rev (asn :: acc)) else scan (asn :: acc) rest
  in
  scan [] path

let compute ?arena ~members ~switch_graph ~(routes : exit_route list) ~originators () =
  let a = match arena with Some a -> a | None -> create_arena () in
  refresh a members switch_graph;
  let n = a.a_n and w = a.a_w and kind = a.a_kind in
  Array.fill w 0 (n * n) (-1);
  (* Best candidate per directed edge: a later candidate replaces an
     earlier one only when strictly lighter. *)
  let consider u v wt k =
    let e = (u * n) + v in
    let old = w.(e) in
    if old < 0 || wt < old then begin
      w.(e) <- wt;
      kind.(e) <- k
    end
  in
  (* Intra-cluster switch links. *)
  List.iter
    (fun (u, v) ->
      consider u v 1 K_intra;
      consider v u 1 K_intra)
    a.a_intra;
  (* Originators reach the destination at no cost. *)
  Net.Asn.Set.iter
    (fun o ->
      let i = index_of a (Net.Asn.to_int o) in
      if i > 0 then consider i 0 0 K_local)
    originators;
  (* External routes: exits or legacy bridges. *)
  List.iter
    (fun (r : exit_route) ->
      let m = index_of a (Net.Asn.to_int r.member) in
      if m > 0 then begin
        match first_member a (Bgp.Attrs.as_path r.attrs) with
        | -1, _ -> consider m 0 r.attrs.Bgp.Attrs.path_len (K_exit r)
        | c, segment ->
          if a.a_sub.(m) <> a.a_sub.(c) then
            consider m c (List.length segment)
              (K_bridge
                 { via_neighbor = r.neighbor; to_member = member_at a c; segment; rel = r.rel })
      end)
    routes;
  (* Dijkstra from the destination over reversed edges: settle the
     unsettled node with the least (distance, relaxation sequence), then
     relax its in-edges in index order.  This is the pop order of a
     (distance, push sequence) heap over ascending-id adjacency lists. *)
  let dist = a.a_dist and seq = a.a_seq and succ = a.a_succ and state = a.a_state in
  Array.fill state 0 n 0;
  dist.(0) <- 0;
  seq.(0) <- 0;
  state.(0) <- 1;
  let next_seq = ref 1 in
  let rec settle () =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if state.(i) = 1 then begin
        let b = !best in
        if b < 0 || dist.(i) < dist.(b) || (dist.(i) = dist.(b) && seq.(i) < seq.(b)) then
          best := i
      end
    done;
    let v = !best in
    if v >= 0 then begin
      state.(v) <- 2;
      let d = dist.(v) in
      for u = 0 to n - 1 do
        let wt = w.((u * n) + v) in
        if wt >= 0 then begin
          let nd = d + wt in
          if state.(u) = 0 || (state.(u) = 1 && nd < dist.(u)) then begin
            dist.(u) <- nd;
            succ.(u) <- v;
            seq.(u) <- !next_seq;
            incr next_seq;
            state.(u) <- 1
          end
        end
      done;
      settle ()
    end
  in
  settle ();
  (* Read decisions off the successor tree, memoizing AS paths. *)
  let memo = a.a_memo in
  Array.fill memo 0 n None;
  let rec path_of m =
    match memo.(m) with
    | Some r -> r
    | None ->
      let s = succ.(m) in
      let result =
        match kind.((m * n) + s) with
        | K_local -> ([], Bgp.Policy.Originated)
        | K_exit r -> (Bgp.Attrs.as_path r.attrs, Bgp.Policy.From r.rel)
        | K_intra ->
          let rest, prov = path_of s in
          (member_at a s :: rest, prov)
        | K_bridge { segment; rel; _ } ->
          let rest, _ = path_of s in
          (segment @ rest, Bgp.Policy.From rel)
      in
      memo.(m) <- Some result;
      result
  in
  let decisions = ref Net.Asn.Map.empty in
  for m = n - 1 downto 1 do
    if state.(m) = 2 then begin
      let s = succ.(m) in
      let member = member_at a m in
      let hop =
        match kind.((m * n) + s) with
        | K_local -> Deliver_local
        | K_exit r -> Exit { neighbor = r.neighbor }
        | K_intra -> Intra { next_member = member_at a s }
        | K_bridge { via_neighbor; to_member; _ } -> Bridge { via_neighbor; to_member }
      in
      let as_path, provenance = path_of m in
      decisions :=
        Net.Asn.Map.add member
          { member; hop; as_path; distance = float_of_int dist.(m); provenance }
          !decisions
    end
  done;
  !decisions

(* The strategy the paper warns against ("we can not naively use the same
   loop avoidance mechanism as BGP"): select each member's best external
   route independently, relying only on BGP's own-ASN loop check (already
   applied at import).  No switch-graph transformation, no sub-cluster
   analysis.  Kept as the comparison baseline that demonstrates why the
   transformation exists — mutually-referential stale routes through
   other cluster members produce forwarding loops the AS paths cannot
   reveal (see test_as_graph). *)
let naive_compute ~members ~(routes : exit_route list) ~originators () =
  Net.Asn.Set.fold
    (fun member acc ->
      if Net.Asn.Set.mem member originators then
        acc
        |> Net.Asn.Map.add member
             { member; hop = Deliver_local; as_path = []; distance = 0.0;
               provenance = Bgp.Policy.Originated }
      else begin
        let candidates =
          List.filter (fun (r : exit_route) -> Net.Asn.equal r.member member) routes
        in
        let best =
          List.fold_left
            (fun acc (r : exit_route) ->
              let len = List.length (Bgp.Attrs.as_path r.attrs) in
              match acc with
              | Some (best_len, (best_r : exit_route))
                when best_len < len
                     || (best_len = len && Net.Asn.compare best_r.neighbor r.neighbor <= 0)
                -> acc
              | Some _ | None -> Some (len, r))
            None candidates
        in
        match best with
        | None -> acc
        | Some (len, r) ->
          acc
          |> Net.Asn.Map.add member
               {
                 member;
                 hop = Exit { neighbor = r.neighbor };
                 as_path = Bgp.Attrs.as_path r.attrs;
                 distance = float_of_int len;
                 provenance = Bgp.Policy.From r.rel;
               }
      end)
    members Net.Asn.Map.empty

let pp_hop ppf = function
  | Deliver_local -> Fmt.string ppf "local"
  | Exit { neighbor } -> Fmt.pf ppf "exit via %a" Net.Asn.pp neighbor
  | Intra { next_member } -> Fmt.pf ppf "intra to %a" Net.Asn.pp next_member
  | Bridge { via_neighbor; to_member } ->
    Fmt.pf ppf "bridge via %a to %a" Net.Asn.pp via_neighbor Net.Asn.pp to_member

let pp_decision ppf d =
  Fmt.pf ppf "%a: %a dist=%.0f path=[%a]" Net.Asn.pp d.member pp_hop d.hop d.distance
    Bgp.Attrs.pp_path d.as_path
