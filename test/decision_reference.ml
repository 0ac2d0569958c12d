(* Reference model of one router's inbound UPDATE path as it was before
   the decision process walked the Adj-RIB-In in place, kept as an oracle
   for [Bgp.Router].

   Per UPDATE: every affected prefix is consed onto a list (withdrawals
   first, then announcements, each in message order); the list is
   reversed and deduplicated through a fresh prefix table, so each prefix
   is decided once, in first-affected order.  A decision builds the
   candidate list (the local route, then the learned routes in ascending
   peer order) and takes [Bgp.Decision.select] of it.  The RIBs are
   persistent maps. *)

module Pm = Net.Ipv4.Prefix_map
module Tbl = Net.Ipv4.Prefix_table

type t = {
  asn : Net.Asn.t;
  mutable adj_in : Bgp.Route.t list Pm.t; (* per prefix, ascending peer order *)
  mutable loc : Bgp.Route.t Pm.t;
  mutable originated : Bgp.Attrs.t Pm.t;
  mutable decision_runs : int;
  mutable notifications : (Net.Ipv4.prefix * Bgp.Route.t option) list; (* newest first *)
}

let create ~asn =
  {
    asn;
    adj_in = Pm.empty;
    loc = Pm.empty;
    originated = Pm.empty;
    decision_runs = 0;
    notifications = [];
  }

let peer_of (r : Bgp.Route.t) =
  match Bgp.Route.source r with
  | Bgp.Route.Ebgp p -> Net.Asn.to_int p
  | Bgp.Route.Local -> invalid_arg "Decision_reference: a local route has no peer"

let routes t prefix = Option.value (Pm.find_opt prefix t.adj_in) ~default:[]

let adj_in_find t ~peer prefix =
  List.find_opt (fun r -> peer_of r = Net.Asn.to_int peer) (routes t prefix)

let adj_in_remove t ~peer prefix =
  match List.filter (fun r -> peer_of r <> Net.Asn.to_int peer) (routes t prefix) with
  | [] -> t.adj_in <- Pm.remove prefix t.adj_in
  | rest -> t.adj_in <- Pm.add prefix rest t.adj_in

let adj_in_set t prefix (route : Bgp.Route.t) =
  let peer = peer_of route in
  let others = List.filter (fun r -> peer_of r <> peer) (routes t prefix) in
  t.adj_in <-
    Pm.add prefix
      (List.sort (fun a b -> Int.compare (peer_of a) (peer_of b)) (route :: others))
      t.adj_in

let local_route t prefix =
  Option.map
    (fun attrs ->
      Bgp.Route.make ~attrs ~source:Bgp.Route.Local)
    (Pm.find_opt prefix t.originated)

let candidates t prefix =
  let learned = routes t prefix in
  match local_route t prefix with Some r -> r :: learned | None -> learned

let route_equal a b =
  Bgp.Route.source a = Bgp.Route.source b
  && Bgp.Attrs.wire_equal (Bgp.Route.attrs a) (Bgp.Route.attrs b)
  && (Bgp.Route.attrs a).Bgp.Attrs.local_pref = (Bgp.Route.attrs b).Bgp.Attrs.local_pref

let run_decision t prefix =
  t.decision_runs <- t.decision_runs + 1;
  let best = Bgp.Decision.select (candidates t prefix) in
  let changed =
    match (Pm.find_opt prefix t.loc, best) with
    | None, None -> false
    | Some a, Some b -> not (route_equal a b)
    | None, Some _ | Some _, None -> true
  in
  if changed then begin
    (match best with
    | Some r -> t.loc <- Pm.add prefix r t.loc
    | None -> t.loc <- Pm.remove prefix t.loc);
    t.notifications <- (prefix, best) :: t.notifications
  end

let run_decisions t prefixes =
  let seen = Tbl.create () in
  List.iter
    (fun p ->
      if not (Tbl.mem p seen) then begin
        Tbl.set p () seen;
        run_decision t p
      end)
    prefixes

let originate t ~next_hop prefix =
  t.originated <- Pm.add prefix (Bgp.Attrs.make ~as_path:[] ~next_hop ()) t.originated;
  run_decision t prefix

(* An import rejects a path that does not start with the peer's ASN (the
   first-AS check) or that holds our own (a loop). *)
let process_update t ~peer ~policy (u : Bgp.Message.update) =
  let import attrs =
    match Bgp.Attrs.as_path attrs with
    | first :: _ when Net.Asn.equal first peer && not (Bgp.Attrs.path_contains attrs t.asn) ->
      Some (Bgp.Policy.import policy attrs)
    | _ -> None
  in
  let affected = ref [] in
  List.iter
    (fun prefix ->
      if Option.is_some (adj_in_find t ~peer prefix) then begin
        adj_in_remove t ~peer prefix;
        affected := prefix :: !affected
      end)
    u.Bgp.Message.withdrawn;
  List.iter
    (fun (prefix, attrs) ->
      match import attrs with
      | Some attrs ->
        adj_in_set t prefix (Bgp.Route.make ~attrs ~source:(Bgp.Route.Ebgp peer));
        affected := prefix :: !affected
      | None ->
        if Option.is_some (adj_in_find t ~peer prefix) then begin
          adj_in_remove t ~peer prefix;
          affected := prefix :: !affected
        end)
    u.Bgp.Message.announced;
  run_decisions t (List.rev !affected)

let notifications t = List.rev t.notifications

let decision_runs t = t.decision_runs
