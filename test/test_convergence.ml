(* Framework.Convergence: measurement semantics. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let make_exp ?(n = 4) ?(sdn = []) () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique n) sdn in
  Framework.Experiment.create ~config:cfg ~seed:5 spec

let test_announcement_measured () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  let m =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp (asn 0)))
  in
  Alcotest.(check bool) "has convergence" true (m.Framework.Convergence.convergence <> None);
  let secs = Framework.Experiment.convergence_seconds m in
  Alcotest.(check bool) "positive and small" true (secs > 0.0 && secs < 5.0);
  Alcotest.(check bool) "changes counted" true (m.Framework.Convergence.changes >= 4)

let test_noop_event_has_no_convergence () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  (* withdrawing a prefix that was never announced changes nothing *)
  let m =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp (asn 0)))
  in
  Alcotest.(check bool) "no convergence for no-op" true
    (m.Framework.Convergence.convergence = None);
  Alcotest.(check int) "no changes" 0 m.Framework.Convergence.changes

let test_withdrawal_slower_than_announcement () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  let m_ann =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp (asn 0)))
  in
  let m_wd =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp (asn 0)))
  in
  Alcotest.(check bool) "Tdown > Tup (path exploration)" true
    (Framework.Experiment.convergence_seconds m_wd
    > Framework.Experiment.convergence_seconds m_ann)

let test_collector_view_close_to_control_view () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp (asn 0))));
  let w = Framework.Experiment.watcher exp in
  let control = Option.get (Framework.Convergence.last_control_change w prefix) in
  let collector =
    Bgp.Collector.events (Framework.Network.collector (Framework.Experiment.network exp))
    |> List.filter (fun e -> Net.Ipv4.equal_prefix e.Bgp.Collector.prefix prefix)
    |> List.rev |> List.hd
    |> fun e -> e.Bgp.Collector.time
  in
  (* the collector hears about the last change within an MRAI + delays *)
  let gap = Engine.Time.to_sec_f (Engine.Time.diff collector control) in
  Alcotest.(check bool) (Fmt.str "gap %.3fs bounded" gap) true (Float.abs gap < 3.0)

let test_sdn_reduces_withdrawal_time () =
  let withdrawal sdn =
    Framework.Experiments.(
      run (describe ~members:(Last sdn) ~config:cfg ~seed:5 (Graph (Topology.Artificial.clique 6))))
      .Framework.Experiments.seconds
  in
  let t_legacy = withdrawal 0 in
  let t_hybrid = withdrawal 4 in
  Alcotest.(check bool)
    (Fmt.str "hybrid %.2fs < legacy %.2fs" t_hybrid t_legacy)
    true (t_hybrid < t_legacy)

let prefix_of s = Option.get (Net.Ipv4.prefix_of_string s)

let test_change_history () =
  let exp = make_exp ~n:3 () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp (asn 0))));
  let w = Framework.Experiment.watcher exp in
  let history = Framework.Convergence.history w prefix in
  Alcotest.(check int) "one entry per counted change"
    (Framework.Convergence.control_changes w prefix) (List.length history);
  Alcotest.(check bool) "every router changed" true (List.length history >= 3);
  let times = List.map fst history in
  Alcotest.(check bool) "oldest first" true (List.sort Engine.Time.compare times = times);
  Alcotest.(check (option int)) "newest entry is the last change"
    (Option.map Engine.Time.to_us (Framework.Convergence.last_control_change w prefix))
    (Some (Engine.Time.to_us (List.nth times (List.length times - 1))));
  List.iter
    (fun (_, a) ->
      Alcotest.(check bool) (Fmt.str "%a is a topology AS" Net.Asn.pp a) true
        (List.exists (Net.Asn.equal a) [ asn 0; asn 1; asn 2 ]))
    history

(* fast_test MRAI is 2 s: use a 1 s gap *)
let rounds ?since exp p =
  Framework.Convergence.exploration_rounds ~gap:(Engine.Time.sec 1) ?since
    (Framework.Experiment.watcher exp) p

(* Announce then withdraw the default prefix of a 6-clique.  Returns the
   experiment, the prefix, the instant the withdrawal started and the
   rounds counted once the announcement had settled. *)
let clique_announce_withdraw () =
  let exp =
    Framework.Experiment.create ~config:cfg ~seed:23 (Topology.Artificial.clique 6)
  in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp (asn 0))));
  let announce_rounds = rounds exp prefix in
  let since = Framework.Experiment.now exp in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.withdraw exp (asn 0))));
  (exp, prefix, since, announce_rounds)

(* A withdrawal on a clique explores in several MRAI waves; the
   announcement settles in one. *)
let test_exploration_waves () =
  let exp, prefix, _, announce_rounds = clique_announce_withdraw () in
  Alcotest.(check int) "announcement: one wave" 1 announce_rounds;
  let total = rounds exp prefix in
  Alcotest.(check bool)
    (Fmt.str "withdrawal adds exploration waves (total %d)" total)
    true (total >= 3);
  Alcotest.(check int) "no changes, no rounds" 0 (rounds exp (prefix_of "203.0.113.0/24"))

(* [~since] keeps only the changes at or after the instant. *)
let test_rounds_since_window () =
  let exp, prefix, since, _ = clique_announce_withdraw () in
  let total = rounds exp prefix in
  Alcotest.(check int) "since drops the announcement wave" (total - 1)
    (rounds ~since exp prefix);
  Alcotest.(check int) "since zero keeps everything" total
    (rounds ~since:Engine.Time.zero exp prefix);
  Alcotest.(check int) "since the end keeps nothing" 0
    (rounds ~since:(Engine.Time.add (Framework.Experiment.now exp) (Engine.Time.sec 1)) exp prefix)

(* The exploration-wave numbers EXPERIMENTS.md quotes for Fig. 2: a seed-67
   clique-16 withdrawal at the default configuration, waves and changes
   per SDN member count. *)
let test_rounds_golden () =
  let n = 16 in
  let run sdn =
    let members = List.init sdn (fun i -> asn (n - 1 - i)) in
    let spec = Topology.Spec.with_sdn (Topology.Artificial.clique n) members in
    let exp = Framework.Experiment.create ~config:Framework.Config.default ~seed:67 spec in
    let prefix = Framework.Experiment.default_prefix exp (asn 0) in
    ignore
      (Framework.Experiment.measure exp ~prefix (fun () ->
           ignore (Framework.Experiment.announce exp (asn 0))));
    let since = Framework.Experiment.now exp in
    let m =
      Framework.Experiment.measure exp ~prefix (fun () ->
          ignore (Framework.Experiment.withdraw exp (asn 0)))
    in
    ( Framework.Convergence.exploration_rounds ~since (Framework.Experiment.watcher exp) prefix,
      m.Framework.Convergence.changes )
  in
  let results = List.map run [ 0; 4; 8; 12; 14 ] in
  Alcotest.(check (list int)) "waves" [ 5; 6; 5; 3; 1 ] (List.map fst results);
  Alcotest.(check (list int)) "changes" [ 417; 326; 199; 77; 17 ] (List.map snd results)

(* Prefixes are keys, not text: 10.0.0.0/8 and 110.0.0.0/8 (one is a
   substring of the other when printed) keep separate histories. *)
let test_prefix_independence () =
  let exp = make_exp () in
  let w = Framework.Experiment.watcher exp in
  let p10 = prefix_of "10.0.0.0/8" and p110 = prefix_of "110.0.0.0/8" in
  let gap = Engine.Time.sec 1 in
  let view p =
    ( List.map
        (fun (t, a) -> (Engine.Time.to_us t, Net.Asn.to_int a))
        (Framework.Convergence.history w p),
      Framework.Convergence.exploration_rounds ~gap w p,
      Framework.Visualize.timeline w p )
  in
  let m10 =
    Framework.Experiment.measure exp ~prefix:p10 (fun () ->
        ignore (Framework.Experiment.announce ~prefix:p10 exp (asn 0)))
  in
  let before = view p10 in
  Alcotest.(check int) "untouched prefix has no history" 0
    (List.length (Framework.Convergence.history w p110));
  Alcotest.(check string) "untouched prefix has an empty timeline" ""
    (Framework.Visualize.timeline w p110);
  let m110 =
    Framework.Experiment.measure exp ~prefix:p110 (fun () ->
        ignore (Framework.Experiment.announce ~prefix:p110 exp (asn 1)))
  in
  ignore
    (Framework.Experiment.measure exp ~prefix:p110 (fun () ->
         ignore (Framework.Experiment.withdraw ~prefix:p110 exp (asn 1))));
  let h10, r10, tl10 = view p10 in
  let b10, br10, btl10 = before in
  Alcotest.(check (list (pair int int))) "10/8 history unchanged" b10 h10;
  Alcotest.(check int) "10/8 rounds unchanged" br10 r10;
  Alcotest.(check string) "10/8 timeline unchanged" btl10 tl10;
  Alcotest.(check int) "10/8 history is its own changes" m10.Framework.Convergence.changes
    (List.length h10);
  let h110, r110, tl110 = view p110 in
  Alcotest.(check bool) "110/8 history starts at its announcement" true
    (List.for_all
       (fun (t, _) -> t >= Engine.Time.to_us m110.Framework.Convergence.event_time)
       h110);
  Alcotest.(check int) "110/8 counts only its own changes"
    (Framework.Convergence.control_changes w p110) (List.length h110);
  Alcotest.(check bool) "110/8 explored after its withdrawal" true (r110 >= 2);
  Alcotest.(check int) "110/8 timeline has a line per change" (List.length h110)
    (List.length (String.split_on_char '\n' tl110) - 1)

(* --- The packed change log against a plain list ----------------------- *)

(* Five prefixes; the last is never recorded. *)
let log_prefixes =
  Array.map prefix_of
    [| "10.0.0.0/8"; "110.0.0.0/8"; "0.0.0.0/0"; "198.51.100.7/32"; "192.0.2.0/24" |]

(* Steps of (prefix index, microseconds since the previous step, AS):
   equal instants, in-wave and MRAI-sized gaps, gaps past 2^35 us, and
   2- and 4-byte ASNs up to 2^32 - 1. *)
let gen_log_steps =
  QCheck.Gen.(
    list_size (int_bound 120)
      (triple (int_bound 3)
         (frequency
            [
              (3, return 0);
              (4, int_bound 50_000);
              (2, int_bound 40_000_000);
              (1, map (fun x -> (1 lsl 35) + x) (int_bound (1 lsl 30)));
            ])
         (frequency
            [
              (4, int_range 64_512 65_535);
              (2, int_range 65_536 ((1 lsl 32) - 1));
              (1, return ((1 lsl 32) - 1));
              (1, int_range 1 127);
            ])))

let print_log_steps steps =
  String.concat "; " (List.map (fun (p, dt, a) -> Fmt.str "(%d, +%d, %d)" p dt a) steps)

(* The clustering [exploration_rounds] specifies, over a plain list. *)
let reference_rounds ~gap ~since changes =
  fst
    (List.fold_left
       (fun (rounds, prev) (time, _) ->
         if time < since then (rounds, prev)
         else ((if rounds = 0 || time - prev > gap then rounds + 1 else rounds), time))
       (0, 0) changes)

let prop_log_reference =
  QCheck.Test.make ~name:"change log = list reference" ~count:300
    (QCheck.make ~print:print_log_steps gen_log_steps)
    (fun steps ->
      let w = Framework.Experiment.watcher (make_exp ~n:2 ()) in
      let reference = Array.make (Array.length log_prefixes) [] in
      let now = ref 0 in
      List.iter
        (fun (i, dt, a) ->
          now := !now + dt;
          Framework.Convergence.record w log_prefixes.(i) (Engine.Time.of_us !now)
            (Net.Asn.of_int a);
          reference.(i) <- (!now, a) :: reference.(i))
        steps;
      Array.for_all2
        (fun prefix rev_changes ->
          let changes = List.rev rev_changes in
          let times = List.map fst changes in
          let last = match rev_changes with (time, _) :: _ -> Some time | [] -> None in
          let middle = match times with [] -> 0 | _ -> List.nth times (List.length times / 2) in
          List.map
            (fun (time, a) -> (Engine.Time.to_us time, Net.Asn.to_int a))
            (Framework.Convergence.history w prefix)
          = changes
          && Framework.Convergence.control_changes w prefix = List.length changes
          && Option.map Engine.Time.to_us (Framework.Convergence.last_control_change w prefix)
             = last
          && List.for_all
               (fun gap ->
                 List.for_all
                   (fun since ->
                     Framework.Convergence.exploration_rounds ~gap:(Engine.Time.us gap)
                       ~since:(Engine.Time.of_us since) w prefix
                     = reference_rounds ~gap ~since changes)
                   [ 0; middle; Option.fold ~none:1 ~some:succ last ])
               [ 0; 1; 10_000_000; 1 lsl 35 ])
        log_prefixes reference)

(* Live words per recorded change, on a real stream: the 3/8/40 CAIDA
   world at seed 7 loads 30 prefixes and withdraws them, and its
   watcher's histories are replayed into a watcher on an idle clique, so
   the words that one gains are its logs alone.  About 0.97 at this
   writing (two growable int arrays spent 2.8); the bound is 1.5. *)
let test_log_words () =
  let tier1, tier2, stubs = (3, 8, 40) in
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create 7) in
  let stub_arr = Array.of_list (Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs) in
  let config =
    {
      Framework.Config.default with
      Framework.Config.collector_retention = Bgp.Collector.Counts_only;
    }
  in
  let net = Framework.Network.create ~config ~seed:7 spec in
  let watcher = Framework.Convergence.attach net in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  let load =
    List.init 30 (fun m ->
        (stub_arr.(m mod Array.length stub_arr), Framework.Experiments.scale_prefix m))
  in
  List.iter (fun (stub, p) -> Framework.Network.originate net stub p) load;
  ignore (Framework.Network.settle net);
  List.iter (fun (stub, p) -> Framework.Network.withdraw net stub p) load;
  ignore (Framework.Network.settle net);
  let replay = Framework.Experiment.watcher (make_exp ~n:2 ()) in
  let before = Obj.reachable_words (Obj.repr replay) in
  let changes =
    List.fold_left
      (fun n (_, p) ->
        List.iter
          (fun (time, a) -> Framework.Convergence.record replay p time a)
          (Framework.Convergence.history watcher p);
        n + Framework.Convergence.control_changes watcher p)
      0 load
  in
  let per_change =
    float_of_int (Obj.reachable_words (Obj.repr replay) - before) /. float_of_int changes
  in
  Alcotest.(check bool) "the load changed routes" true (changes > 1000);
  Alcotest.(check bool)
    (Fmt.str "%.2f live words per recorded change (%d changes) <= 1.5" per_change changes)
    true (per_change <= 1.5)

let suite =
  [
    Alcotest.test_case "announcement measured" `Quick test_announcement_measured;
    Alcotest.test_case "change history" `Quick test_change_history;
    Alcotest.test_case "exploration waves" `Quick test_exploration_waves;
    Alcotest.test_case "exploration since window" `Quick test_rounds_since_window;
    Alcotest.test_case "exploration rounds golden" `Quick test_rounds_golden;
    Alcotest.test_case "prefix histories independent" `Quick test_prefix_independence;
    Alcotest.test_case "no-op has no convergence" `Quick test_noop_event_has_no_convergence;
    Alcotest.test_case "withdrawal slower than announcement" `Quick
      test_withdrawal_slower_than_announcement;
    Alcotest.test_case "collector view consistent" `Quick
      test_collector_view_close_to_control_view;
    Alcotest.test_case "centralization reduces Tdown" `Quick test_sdn_reduces_withdrawal_time;
    QCheck_alcotest.to_alcotest prop_log_reference;
    Alcotest.test_case "change log words per change" `Quick test_log_words;
  ]
