(* Sdn.Flow_table: one rule per match prefix, longest prefix wins. *)

open Sdn

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let a s = Option.get (Net.Ipv4.addr_of_string s)

let rule prefix port = Flow.make ~match_prefix:(p prefix) (Flow.Output port)

(* The output port of the winning rule for an address. *)
let port_at t addr =
  Option.map Flow.out_port (Net.Fib.lookup_value t (a addr))

let check_port msg want t addr = Alcotest.(check (option int)) msg want (port_at t addr)

(* A rule's OpenFlow priority is its prefix length: any rule beats the
   0.0.0.0/0 fallback where it matches, and the fallback takes the rest. *)
let test_priority_wins () =
  let t = Flow_table.create () in
  Flow_table.add t (rule "0.0.0.0/0" 1);
  Flow_table.add t (rule "10.0.0.0/8" 2);
  check_port "rule beats the fallback" (Some 2) t "10.1.1.1";
  check_port "fallback elsewhere" (Some 1) t "11.0.0.1"

let test_longest_prefix_wins () =
  let t = Flow_table.create () in
  Flow_table.add t (rule "10.1.1.0/24" 3);
  Flow_table.add t (rule "10.0.0.0/8" 1);
  Flow_table.add t (rule "10.1.0.0/16" 2);
  check_port "/24" (Some 3) t "10.1.1.1";
  check_port "/16" (Some 2) t "10.1.2.1";
  check_port "/8" (Some 1) t "10.2.0.1";
  check_port "no match" None t "11.0.0.1"

let test_add_replaces_same_key () =
  let t = Flow_table.create () in
  let old = rule "10.0.0.0/8" 1 in
  Flow_table.add t old;
  Flow_table.add t (rule "10.0.0.0/8" 7);
  Alcotest.(check int) "replaced" 1 (Flow_table.size t);
  check_port "new action" (Some 7) t "10.0.0.1";
  (* the replaced record is no longer installed: its timer must not fire *)
  Alcotest.(check bool) "old record gone" false (Flow_table.remove_physical t old);
  check_port "replacement kept" (Some 7) t "10.0.0.1"

let test_delete () =
  let t = Flow_table.create () in
  Flow_table.add t (rule "10.0.0.0/8" 1);
  Flow_table.add t (rule "10.1.0.0/16" 2);
  Flow_table.add t (rule "11.0.0.0/8" 3);
  Flow_table.delete t ~match_prefix:(p "10.0.0.0/8");
  Alcotest.(check int) "only that prefix deleted" 2 (Flow_table.size t);
  check_port "longer prefix remains" (Some 2) t "10.1.0.1";
  check_port "deleted prefix misses" None t "10.2.0.1";
  check_port "other remains" (Some 3) t "11.0.0.1"

(* Reference check: after any sequence of adds and deletes, lookup equals
   a scan of an association list (one rule per prefix, a later add
   replacing) for the longest matching prefix, and [rules] lists that
   list longest prefix first, prefix-ascending within a length. *)
type op = Add of Net.Ipv4.prefix * int | Delete of Net.Ipv4.prefix

let pp_op ppf = function
  | Add (pfx, port) -> Fmt.pf ppf "add %a -> %d" Net.Ipv4.pp_prefix pfx port
  | Delete pfx -> Fmt.pf ppf "delete %a" Net.Ipv4.pp_prefix pfx

let prop_lookup_matches_reference =
  let gen =
    QCheck.Gen.(
      (* a small pool of nested prefixes under 10/8 plus the /0 fallback,
         so adds often replace and prefixes often overlap *)
      let prefix =
        frequency
          [
            (1, return (p "0.0.0.0/0"));
            ( 6,
              let* o2 = int_bound 3 in
              let* o3 = int_bound 3 in
              let* o4 = int_bound 3 in
              let* len = oneofl [ 8; 16; 24; 30; 32 ] in
              return (Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 10 o2 o3 o4) len) );
          ]
      in
      let op =
        frequency
          [
            (4, map2 (fun pfx port -> Add (pfx, port)) prefix (int_range 1 5));
            (1, map (fun pfx -> Delete pfx) prefix);
          ]
      in
      let probe =
        let* o1 = oneofl [ 10; 11 ] in
        let* o2 = int_bound 3 in
        let* o3 = int_bound 3 in
        let* o4 = int_bound 3 in
        return (Net.Ipv4.addr_of_octets o1 o2 o3 o4)
      in
      pair (list_size (int_range 0 25) op) (list_size (int_range 1 10) probe))
  in
  QCheck.Test.make ~name:"lookup = longest match of a list scan" ~count:500
    (QCheck.make
       ~print:(fun (ops, probes) ->
         Fmt.str "%a@.probes %a" Fmt.(list ~sep:cut pp_op) ops
           Fmt.(list ~sep:sp Net.Ipv4.pp_addr) probes)
       gen)
    (fun (ops, probes) ->
      let t = Flow_table.create () in
      let reference =
        List.fold_left
          (fun acc op ->
            match op with
            | Add (pfx, port) ->
              let r = Flow.make ~match_prefix:pfx (Flow.Output port) in
              Flow_table.add t r;
              (pfx, r) :: List.remove_assoc pfx acc
            | Delete pfx ->
              Flow_table.delete t ~match_prefix:pfx;
              List.remove_assoc pfx acc)
          [] ops
      in
      let len pfx = Net.Ipv4.prefix_len pfx in
      let longest addr =
        List.fold_left
          (fun best (pfx, r) ->
            if not (Net.Ipv4.mem addr pfx) then best
            else
              match best with
              | Some (b, _) when len b >= len pfx -> best
              | Some _ | None -> Some (pfx, r))
          None reference
      in
      let listed =
        List.sort
          (fun (x, _) (y, _) ->
            if len x <> len y then Int.compare (len y) (len x) else Net.Ipv4.compare_prefix x y)
          reference
      in
      Flow_table.size t = List.length reference
      && List.for_all2 ( == ) (Flow_table.rules t) (List.map snd listed)
      && List.for_all
           (fun addr ->
             match (Net.Fib.lookup_value t addr, longest addr) with
             | None, None -> true
             | Some got, Some (_, want) -> got == want
             | Some _, None | None, Some _ -> false)
           probes)

let suite =
  [
    Alcotest.test_case "priority wins" `Quick test_priority_wins;
    Alcotest.test_case "longest prefix wins" `Quick test_longest_prefix_wins;
    Alcotest.test_case "add replaces same key" `Quick test_add_replaces_same_key;
    Alcotest.test_case "delete by prefix" `Quick test_delete;
    QCheck_alcotest.to_alcotest prop_lookup_matches_reference;
  ]
