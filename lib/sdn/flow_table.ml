(* A switch's flow table: one rule per match prefix, longest prefix wins.

   OpenFlow picks the highest-priority matching rule.  The controller
   installs one destination rule per prefix at priority = prefix length,
   and the legacy fallback is 0.0.0.0/0, so that choice is exactly
   longest-prefix match: the table is a [Net.Fib] of rules keyed by their
   match prefix.  Occupancy is [Fib.size], O(1), so the metrics gauge never walks the
   table. *)

type t = Flow.rule Net.Fib.t

(* [metrics]/[labels] are optional so tables can exist outside a simulation
   (tests, offline compilation); when given, occupancy is a pull-style
   gauge synced at snapshot time. *)
let create ?metrics ?(labels = []) () =
  let t = Net.Fib.create () in
  Option.iter
    (fun m ->
      let g =
        Engine.Metrics.gauge m ~help:"installed flow rules" ~labels "sdn_flow_table_rules"
      in
      Engine.Metrics.on_collect m (fun () ->
          Engine.Metrics.Gauge.set g (float_of_int (Net.Fib.size t))))
    metrics;
  t

(* Descending priority (prefix length), as OpenFlow lists a table;
   [Fib.entries] is prefix-ascending and the sort is stable, so rules of
   one length stay in prefix order. *)
let rules t =
  let len (r : Flow.rule) = Net.Ipv4.prefix_len r.Flow.match_prefix in
  List.stable_sort (fun a b -> Int.compare (len b) (len a)) (List.map snd (Net.Fib.entries t))

let size = Net.Fib.size

let add t (rule : Flow.rule) = Net.Fib.insert t rule.Flow.match_prefix rule

let delete t ~match_prefix = Net.Fib.remove t match_prefix

(* Remove this very rule record (physical identity) — used by timeout
   expiry so that a same-prefix replacement installed later is never the
   victim of the old rule's timer. *)
let remove_physical t (rule : Flow.rule) =
  match Net.Fib.find t rule.Flow.match_prefix with
  | Some r when r == rule ->
    Net.Fib.remove t rule.Flow.match_prefix;
    true
  | Some _ | None -> false

let clear = Net.Fib.clear
