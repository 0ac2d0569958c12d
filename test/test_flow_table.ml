(* Sdn.Flow and Sdn.Flow_table: rule matching and priorities. *)

open Sdn

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let a s = Option.get (Net.Ipv4.addr_of_string s)

let rule ?priority prefix action = Flow.make ?priority ~match_prefix:(p prefix) action

(* The winning rule for an address, through the table's index lookup. *)
let lookup t addr =
  let i = Flow_table.lookup_idx t (Net.Ipv4.addr_to_bits addr) in
  if i < 0 then None else Some (Flow_table.nth_rule t i)

let test_priority_wins () =
  let t = Flow_table.create () in
  Flow_table.add t (rule ~priority:1 "10.0.0.0/8" (Flow.Output 1));
  Flow_table.add t (rule ~priority:9 "10.0.0.0/8" (Flow.Output 2));
  match lookup t (a "10.1.1.1") with
  | Some r -> Alcotest.(check bool) "high priority" true (Flow.action_equal r.Flow.action (Flow.Output 2))
  | None -> Alcotest.fail "must match"

let test_longest_prefix_within_priority () =
  let t = Flow_table.create () in
  Flow_table.add t (rule ~priority:5 "10.0.0.0/8" (Flow.Output 1));
  Flow_table.add t (rule ~priority:5 "10.1.0.0/16" (Flow.Output 2));
  match lookup t (a "10.1.1.1") with
  | Some r -> Alcotest.(check bool) "longer match" true (Flow.action_equal r.Flow.action (Flow.Output 2))
  | None -> Alcotest.fail "must match"

let test_add_replaces_same_key () =
  let t = Flow_table.create () in
  Flow_table.add t (rule ~priority:5 "10.0.0.0/8" (Flow.Output 1));
  Flow_table.add t (rule ~priority:5 "10.0.0.0/8" (Flow.Output 7));
  Alcotest.(check int) "replaced" 1 (Flow_table.size t);
  match lookup t (a "10.0.0.1") with
  | Some r -> Alcotest.(check bool) "new action" true (Flow.action_equal r.Flow.action (Flow.Output 7))
  | None -> Alcotest.fail "must match"

let test_delete () =
  let t = Flow_table.create () in
  Flow_table.add t (rule ~priority:1 "10.0.0.0/8" (Flow.Output 1));
  Flow_table.add t (rule ~priority:2 "10.0.0.0/8" (Flow.Output 2));
  Flow_table.add t (rule "11.0.0.0/8" (Flow.Output 3));
  Flow_table.delete t ~match_prefix:(p "10.0.0.0/8");
  Alcotest.(check int) "both priorities deleted" 1 (Flow_table.size t);
  Alcotest.(check bool) "other remains" true (lookup t (a "11.0.0.1") <> None)

(* Reference check: table lookup equals max over matching rules by
   (priority, prefix length). *)
let prop_lookup_matches_reference =
  let gen =
    QCheck.Gen.(
      let gen_rule =
        let* oct = int_range 0 255 in
        let* len = int_range 8 24 in
        let* prio = int_range 0 3 in
        let* port = int_range 1 5 in
        return
          (Flow.make ~priority:prio
             ~match_prefix:(Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 10 oct 0 0) len)
             (Flow.Output port))
      in
      let* rules = list_size (int_range 0 15) gen_rule in
      let* o2 = int_range 0 255 in
      let* o3 = int_range 0 255 in
      return (rules, Net.Ipv4.addr_of_octets 10 o2 o3 1))
  in
  QCheck.Test.make ~name:"lookup = max by (priority, length)" ~count:300
    (QCheck.make ~print:(fun (rs, _) -> Fmt.str "%d rules" (List.length rs)) gen)
    (fun (rules, probe) ->
      let t = Flow_table.create () in
      List.iter (Flow_table.add t) rules;
      (* reference over the table's own rules (add dedups same-key) *)
      let matching = List.filter (fun r -> Flow.matches r probe) (Flow_table.rules t) in
      let better (x : Flow.rule) (y : Flow.rule) =
        if x.priority <> y.priority then x.priority > y.priority
        else Net.Ipv4.prefix_len x.match_prefix > Net.Ipv4.prefix_len y.match_prefix
      in
      let reference =
        List.fold_left
          (fun acc r -> match acc with None -> Some r | Some b -> if better r b then Some r else acc)
          None matching
      in
      let got = lookup t probe in
      match (got, reference) with
      | None, None -> true
      | Some g, Some r ->
        g.Flow.priority = r.Flow.priority
        && Net.Ipv4.prefix_len g.Flow.match_prefix = Net.Ipv4.prefix_len r.Flow.match_prefix
      | _ -> false)

let suite =
  [
    Alcotest.test_case "priority wins" `Quick test_priority_wins;
    Alcotest.test_case "longest prefix within priority" `Quick test_longest_prefix_within_priority;
    Alcotest.test_case "add replaces same key" `Quick test_add_replaces_same_key;
    Alcotest.test_case "delete by prefix" `Quick test_delete;
    QCheck_alcotest.to_alcotest prop_lookup_matches_reference;
  ]
