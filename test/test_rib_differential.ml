(* Differential suite: the scale-path structures (hashed FIB, exact-match
   prefix tables and the RIBs built on them, hash-consed attrs) against
   plain map-based reference implementations —
   the pre-scale design kept here as an executable specification.  Every
   random sequence is seeded from [Engine.Rng] so a failure reproduces
   exactly. *)

module Pm = Net.Ipv4.Prefix_map
module Tbl = Net.Ipv4.Prefix_table
module Am = Net.Asn.Map

let nh = Net.Ipv4.addr_of_octets 10 0 0 1

let asn = Net.Asn.of_int

(* A small pool of overlapping prefixes (different lengths, shared
   spines) so removes hit, LPM has real longest-vs-shorter choices, and
   trie paths share internal nodes. *)
let random_prefix rng =
  let len = 8 + Engine.Rng.int rng 21 (* /8 .. /28 *) in
  let a = 10 + Engine.Rng.int rng 4 in
  let b = Engine.Rng.int rng 8 in
  let c = Engine.Rng.int rng 8 in
  let d = Engine.Rng.int rng 256 in
  Net.Ipv4.prefix (Net.Ipv4.addr_of_octets a b c d) len

let random_addr rng =
  Net.Ipv4.addr_of_octets
    (10 + Engine.Rng.int rng 4)
    (Engine.Rng.int rng 8) (Engine.Rng.int rng 8) (Engine.Rng.int rng 256)

let route ~peer ~tag =
  Bgp.Route.make
    ~attrs:(Bgp.Attrs.make ~as_path:[ asn peer; asn (65100 + tag) ] ~next_hop:nh ())
    ~source:(Bgp.Route.Ebgp (asn peer))

let check_entries name expected got =
  Alcotest.(check int) (name ^ ": cardinal") (List.length expected) (List.length got);
  List.iter2
    (fun (pe, _) (pg, _) ->
      Alcotest.(check bool)
        (Fmt.str "%s: key %a vs %a" name Net.Ipv4.pp_prefix pe Net.Ipv4.pp_prefix pg)
        true
        (Net.Ipv4.equal_prefix pe pg))
    expected got

(* --- Net.Fib vs Prefix_map: insert / remove / exact / LPM / order ---- *)

(* Mixed lengths across the whole address space: /0, /32 and networks
   with the top bit set, whose packed keys sort above every 0.x-127.x
   key only if the packing keeps the network unsigned. *)
let wide_prefix rng =
  match Engine.Rng.int rng 8 with
  | 0 -> Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 0 0 0 0) 0
  | 1 -> Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 128 0 0 0) 1
  | 2 -> Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 255 255 255 255) 32
  | _ ->
    let octet () = if Engine.Rng.bool rng then 255 else Engine.Rng.int rng 4 in
    Net.Ipv4.prefix
      (Net.Ipv4.addr_of_octets (octet ()) (octet ()) (octet ()) (octet ()))
      (Engine.Rng.int rng 33)

let reference_lpm addr m =
  Pm.fold
    (fun p v best ->
      if Net.Ipv4.mem addr p then
        match best with
        | Some (bp, _) when Net.Ipv4.prefix_len bp >= Net.Ipv4.prefix_len p -> best
        | _ -> Some (p, v)
      else best)
    m None

(* A uniform address inside [p]. *)
let address_in rng p =
  let r = (Engine.Rng.int rng 0x10000 lsl 16) lor Engine.Rng.int rng 0x10000 in
  let host = r land lnot (Net.Ipv4.mask_bits (Net.Ipv4.prefix_len p)) land 0xffff_ffff in
  Net.Ipv4.addr_of_bits (Net.Ipv4.addr_to_bits (Net.Ipv4.prefix_network p) lor host)

(* Half the steps draw from the overlapping /8../28 pool, so LPM has real
   longest-vs-shorter choices; the other half from [wide_prefix], so /0,
   /32 and top-bit networks are inserted, removed and ordered too. *)
let test_fib_vs_map () =
  let rng = Engine.Rng.create 42 in
  let fib = Net.Fib.create () in
  let reference = ref Pm.empty in
  let matched = Array.make 33 false in
  for step = 1 to 4000 do
    let p = if Engine.Rng.bool rng then random_prefix rng else wide_prefix rng in
    (match Engine.Rng.int rng 5 with
    | 0 | 1 ->
      Net.Fib.insert fib p step;
      reference := Pm.add p step !reference
    | 2 ->
      Net.Fib.remove fib p;
      reference := Pm.remove p !reference
    | 3 ->
      let addr = if Engine.Rng.bool rng then random_addr rng else address_in rng p in
      let got = Net.Fib.lookup fib addr in
      let want = reference_lpm addr !reference in
      Option.iter (fun (gp, _) -> matched.(Net.Ipv4.prefix_len gp) <- true) got;
      Alcotest.(check bool)
        (Fmt.str "step %d: LPM for %a" step Net.Ipv4.pp_addr addr)
        true
        (match (got, want) with
        | None, None -> true
        | Some (gp, gv), Some (wp, wv) -> Net.Ipv4.equal_prefix gp wp && gv = wv
        | _ -> false);
      Alcotest.(check (option int))
        (Fmt.str "step %d: LPM value" step)
        (Option.map snd want) (Net.Fib.lookup_value fib addr)
    | _ ->
      Alcotest.(check (option int))
        (Fmt.str "step %d: find %a" step Net.Ipv4.pp_prefix p)
        (Pm.find_opt p !reference) (Net.Fib.find fib p));
    Alcotest.(check int) (Fmt.str "step %d: size" step) (Pm.cardinal !reference)
      (Net.Fib.size fib);
    if step mod 200 = 0 then begin
      let expected = Pm.bindings !reference in
      check_entries (Fmt.str "step %d: entries" step) expected (Net.Fib.entries fib);
      List.iter2
        (fun (_, ve) (_, vg) -> Alcotest.(check int) "entry value" ve vg)
        expected (Net.Fib.entries fib);
      let visited = ref [] in
      Net.Fib.iter fib (fun packed v ->
          visited := (Net.Ipv4.prefix_of_packed packed, v) :: !visited);
      check_entries (Fmt.str "step %d: iter" step) expected (List.rev !visited);
      List.iter2
        (fun (_, ve) (_, vg) -> Alcotest.(check int) "iter value" ve vg)
        expected (List.rev !visited)
    end
  done;
  Alcotest.(check bool) "LPM answered with a /0" true matched.(0);
  Alcotest.(check bool) "LPM answered with a /32" true matched.(32);
  let words0 = Gc.minor_words () in
  Net.Fib.iter fib (fun _ _ -> ());
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check bool)
    (Fmt.str "iter over %d entries: %.0f minor words" (Net.Fib.size fib) words)
    true (words < 32.0);
  Net.Fib.clear fib;
  Alcotest.(check int) "clear empties" 0 (Net.Fib.size fib);
  Alcotest.(check (list int)) "clear leaves no entries" [] (List.map snd (Net.Fib.entries fib))

(* --- Prefix_table vs Prefix_map: set / remove / find / order --------- *)

let test_table_vs_map () =
  let rng = Engine.Rng.create 77 in
  let table = Tbl.create () in
  let reference = ref Pm.empty in
  for step = 1 to 4000 do
    let p = wide_prefix rng in
    (match Engine.Rng.int rng 4 with
    | 0 | 1 ->
      Tbl.set p step table;
      reference := Pm.add p step !reference
    | 2 ->
      Tbl.remove p table;
      reference := Pm.remove p !reference
    | _ ->
      Alcotest.(check (option int))
        (Fmt.str "step %d: find %a" step Net.Ipv4.pp_prefix p)
        (Pm.find_opt p !reference) (Tbl.find p table));
    Alcotest.(check int) (Fmt.str "step %d: size" step) (Pm.cardinal !reference)
      (Tbl.size table);
    Alcotest.(check bool) (Fmt.str "step %d: mem" step) (Pm.mem p !reference)
      (Tbl.mem p table);
    if step mod 200 = 0 then begin
      let expected = Pm.bindings !reference in
      let got = Tbl.entries table in
      check_entries (Fmt.str "step %d: entries" step) expected got;
      List.iter2
        (fun (_, ve) (_, vg) -> Alcotest.(check int) "entry value" ve vg)
        expected got;
      check_entries (Fmt.str "step %d: keys" step) expected
        (List.map (fun k -> (k, ())) (Tbl.keys table))
    end
  done;
  let top_bit = Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 128 0 0 0) 1 in
  Alcotest.(check bool) "covers top-bit networks" true
    (Pm.exists (fun p _ -> Net.Ipv4.subsumes ~outer:top_bit ~inner:p) !reference);
  (* A table emptied entry by entry leaves no residue: it is as small as a
     fresh one (a peer whose advertisements were all withdrawn costs a
     record only). *)
  Pm.iter (fun p _ -> Tbl.remove p table) !reference;
  Alcotest.(check int) "emptied by removal" 0 (Tbl.size table);
  Alcotest.(check int) "no residue after the last removal"
    (Obj.reachable_words (Obj.repr (Tbl.create () : int Tbl.t)))
    (Obj.reachable_words (Obj.repr table));
  Tbl.set (wide_prefix rng) 0 table;
  Tbl.clear table;
  Alcotest.(check int) "clear empties" 0 (Tbl.size table);
  Alcotest.(check bool) "clear is_empty" true (Tbl.is_empty table)

(* --- Adj-RIB-In: table-backed vs per-peer Prefix_map ----------------- *)

type ref_adj_in = { mutable tables : Bgp.Route.t Pm.t Am.t }

let ref_adj_in_set t ~peer prefix r =
  let m = Option.value (Am.find_opt peer t.tables) ~default:Pm.empty in
  t.tables <- Am.add peer (Pm.add prefix r m) t.tables

let ref_adj_in_remove t ~peer prefix =
  match Am.find_opt peer t.tables with
  | None -> ()
  | Some m ->
    let m = Pm.remove prefix m in
    t.tables <- (if Pm.is_empty m then Am.remove peer t.tables else Am.add peer m t.tables)

let ref_adj_in_drop_peer t ~peer =
  let dropped =
    match Am.find_opt peer t.tables with
    | None -> []
    | Some m -> List.map fst (Pm.bindings m)
  in
  t.tables <- Am.remove peer t.tables;
  dropped

let ref_adj_in_candidates t prefix =
  Am.fold
    (fun _ m acc -> match Pm.find_opt prefix m with Some r -> r :: acc | None -> acc)
    t.tables []
  |> List.rev

let ref_adj_in_size t = Am.fold (fun _ m acc -> acc + Pm.cardinal m) t.tables 0

let same_route a b =
  Bgp.Route.attrs a == Bgp.Route.attrs b
  && Bgp.Route.source a = Bgp.Route.source b

(* The Adj-RIB-In shares its entries with the Loc-RIB's bests, so
   decisions run between the updates: a prefix whose last learned route
   is gone keeps its best until the next decision, and no Adj-RIB-In
   read may show it. *)
let test_adj_in_differential () =
  let rng = Engine.Rng.create 1001 in
  let rib = Bgp.Rib.create () in
  let reference = { tables = Am.empty } in
  let peers = [ 65001; 65002; 65003; 65004; 65005 ] in
  for step = 1 to 2000 do
    let peer = asn (Engine.Rng.pick rng peers) in
    let prefix = random_prefix rng in
    (match Engine.Rng.int rng 9 with
    | 0 | 1 | 2 | 3 ->
      let r = route ~peer:(Net.Asn.to_int peer) ~tag:(Engine.Rng.int rng 4) in
      Bgp.Rib.Adj_in.set rib prefix r;
      ref_adj_in_set reference ~peer prefix r
    | 7 -> ignore (Bgp.Rib.Loc.decide rib prefix ~local:None)
    | 4 | 5 ->
      let held = Option.bind (Am.find_opt peer reference.tables) (Pm.find_opt prefix) <> None in
      Alcotest.(check bool)
        (Fmt.str "step %d: remove reports the route" step)
        held
        (Bgp.Rib.Adj_in.remove rib ~peer prefix);
      ref_adj_in_remove reference ~peer prefix
    | 6 ->
      let got = Bgp.Rib.Adj_in.drop_peer rib ~peer in
      let want = ref_adj_in_drop_peer reference ~peer in
      Alcotest.(check int)
        (Fmt.str "step %d: drop_peer count" step)
        (List.length want) (List.length got);
      List.iter2
        (fun w g ->
          Alcotest.(check bool) "dropped prefix, in order" true (Net.Ipv4.equal_prefix w g))
        want got
    | _ ->
      let got = Bgp.Rib.Adj_in.candidates rib prefix in
      let want = ref_adj_in_candidates reference prefix in
      Alcotest.(check int)
        (Fmt.str "step %d: candidate count" step)
        (List.length want) (List.length got);
      List.iter2
        (fun w g ->
          Alcotest.(check bool) "candidate route" true (same_route w g))
        want got);
    Alcotest.(check int)
      (Fmt.str "step %d: size" step)
      (ref_adj_in_size reference)
      (Bgp.Rib.Adj_in.size rib);
    (* exact-match spot check with a prefix likely present *)
    let probe = random_prefix rng in
    let got = Bgp.Rib.Adj_in.find rib ~peer probe in
    let want =
      Option.bind (Am.find_opt peer reference.tables) (Pm.find_opt probe)
    in
    Alcotest.(check bool)
      (Fmt.str "step %d: find agrees" step)
      true
      (match (got, want) with
      | None, None -> true
      | Some g, Some w -> same_route g w
      | _ -> false)
  done;
  (* final full-state comparison, peer by peer *)
  List.iter
    (fun p ->
      let peer = asn p in
      let want =
        match Am.find_opt peer reference.tables with
        | None -> []
        | Some m -> List.map fst (Pm.bindings m)
      in
      let got = Bgp.Rib.Adj_in.prefixes_from rib ~peer in
      Alcotest.(check int) (Fmt.str "final: AS%d prefixes" p) (List.length want)
        (List.length got);
      List.iter2
        (fun w g -> Alcotest.(check bool) "prefix, in order" true (Net.Ipv4.equal_prefix w g))
        want got)
    peers;
  let union =
    Am.fold (fun _ m acc -> Pm.union (fun _ r _ -> Some r) m acc) reference.tables Pm.empty
  in
  check_entries "final: all_prefixes"
    (List.map (fun (k, _) -> (k, ())) (Pm.bindings union))
    (List.map (fun k -> (k, ())) (Bgp.Rib.Adj_in.all_prefixes rib))

(* --- Loc-RIB: cell 0 of the merged entry vs Prefix_map ---------------- *)

(* Paths of one to three hops and two MEDs, so the decision weighs path
   length, MED and the neighbor tiebreak. *)
let learned ~peer ~tag =
  Bgp.Route.make
    ~attrs:
      (Bgp.Attrs.make
         ~as_path:(asn peer :: List.init (tag mod 3) (fun _ -> asn (65100 + tag)))
         ~med:(tag / 3) ~next_hop:nh ())
    ~source:(Bgp.Route.Ebgp (asn peer))

(* A local route beats every learned one (shorter path) unless its
   local-pref is lowered. *)
let local ~tag =
  Bgp.Route.make
    ~attrs:(Bgp.Attrs.make ~local_pref:(if tag = 0 then 50 else 100) ~next_hop:nh ())
    ~source:Bgp.Route.Local

let same_best a b =
  Bgp.Route.source a = Bgp.Route.source b
  && Bgp.Attrs.wire_equal (Bgp.Route.attrs a) (Bgp.Route.attrs b)
  && (Bgp.Route.attrs a).Bgp.Attrs.local_pref = (Bgp.Route.attrs b).Bgp.Attrs.local_pref

(* Learned routes come and go, local routes are configured and removed,
   and decisions run between them: each decision must report the change
   (and the best it replaced) that [Decision.select] over the reference's
   candidates implies, and the bests must equal the reference's in
   lookups, counts and ordered walks. *)
let test_loc_differential () =
  let rng = Engine.Rng.create 2002 in
  let rib = Bgp.Rib.create () in
  let adj = { tables = Am.empty } and locals = ref Pm.empty and reference = ref Pm.empty in
  let peers = [ 65001; 65002; 65003 ] in
  for step = 1 to 2000 do
    let prefix = random_prefix rng in
    (match Engine.Rng.int rng 8 with
    | 0 | 1 ->
      let peer = Engine.Rng.pick rng peers in
      let r = learned ~peer ~tag:(Engine.Rng.int rng 6) in
      Bgp.Rib.Adj_in.set rib prefix r;
      ref_adj_in_set adj ~peer:(asn peer) prefix r
    | 2 ->
      let peer = asn (Engine.Rng.pick rng peers) in
      ignore (Bgp.Rib.Adj_in.remove rib ~peer prefix);
      ref_adj_in_remove adj ~peer prefix
    | 3 ->
      locals :=
        if Pm.mem prefix !locals then Pm.remove prefix !locals
        else Pm.add prefix (local ~tag:(Engine.Rng.int rng 2)) !locals
    | _ ->
      let local = Pm.find_opt prefix !locals in
      let pick = Bgp.Decision.select (Option.to_list local @ ref_adj_in_candidates adj prefix) in
      let old = Pm.find_opt prefix !reference in
      let kept =
        match (old, pick) with
        | None, None -> true
        | Some o, Some n -> same_best o n
        | Some _, None | None, Some _ -> false
      in
      Alcotest.(check bool)
        (Fmt.str "step %d: decide reports the change and the best it replaced" step)
        true
        (match Bgp.Rib.Loc.decide rib prefix ~local with
        | Bgp.Rib.Loc.Kept -> kept
        | Bgp.Rib.Loc.Changed { old = o; best } ->
          (not kept) && Option.equal ( == ) o old && Option.equal ( == ) best pick);
      if not kept then
        reference :=
          match pick with
          | Some r -> Pm.add prefix r !reference
          | None -> Pm.remove prefix !reference);
    Alcotest.(check int)
      (Fmt.str "step %d: size" step)
      (Pm.cardinal !reference) (Bgp.Rib.Loc.size rib);
    Alcotest.(check int)
      (Fmt.str "step %d: learned routes" step)
      (ref_adj_in_size adj) (Bgp.Rib.Adj_in.size rib);
    let probe = random_prefix rng in
    Alcotest.(check bool)
      (Fmt.str "step %d: find agrees" step)
      true
      (match (Bgp.Rib.Loc.find rib probe, Pm.find_opt probe !reference) with
      | None, None -> true
      | Some g, Some w -> g == w
      | _ -> false);
    (* [iter] reuses its sorted order until a prefix comes or goes: walk
       often, so stale orders get a chance to show *)
    if step mod 3 = 0 then begin
      let visited = ref [] in
      Bgp.Rib.Loc.iter rib (fun packed r ->
          visited := (Net.Ipv4.prefix_of_packed packed, r) :: !visited);
      Alcotest.(check bool)
        (Fmt.str "step %d: iter = reference bindings" step)
        true
        (List.equal
           (fun (pw, w) (pg, g) -> Net.Ipv4.equal_prefix pw pg && w == g)
           (Pm.bindings !reference) (List.rev !visited))
    end
  done;
  check_entries "final entries" (Pm.bindings !reference) (Bgp.Rib.Loc.entries rib);
  Bgp.Rib.Loc.iter rib (fun _ _ -> ());
  let words0 = Gc.minor_words () in
  Bgp.Rib.Loc.iter rib (fun _ _ -> ());
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check bool)
    (Fmt.str "repeat iter over %d bests: %.0f minor words" (Bgp.Rib.Loc.size rib) words)
    true (words < 32.0);
  Bgp.Rib.clear rib;
  Alcotest.(check int) "clear drops the learned routes" 0 (Bgp.Rib.Adj_in.size rib);
  Bgp.Rib.Loc.iter rib (fun _ _ -> Alcotest.fail "iter after clear")

(* --- Adj-RIB-Out: Router.adj_out_find vs per-peer Prefix_map --------- *)

(* A router's Adj-RIB-Out is derived from its Loc-RIB and its peers'
   queued changes.  Three customers see every local route while their
   session is up; random originations, withdrawals, session flaps and
   time steps (MRAI expiries) drive the router, and each peer's view
   must equal a per-peer map of what it was told.  Every few steps the
   run goes quiet, and then what the router's UPDATEs actually told
   each peer must equal the map too. *)
let test_adj_out_differential () =
  let rng = Engine.Rng.create 3003 in
  let sim = Engine.Sim.create () in
  let me = asn 65000 in
  let peers = [ 65001; 65002; 65003 ] in
  (* What each peer's UPDATE stream told it, reset with its session. *)
  let told = Hashtbl.create 3 in
  let send ~dst msg =
    (match msg with
    | Bgp.Message.Update u ->
      let m = Option.value (Hashtbl.find_opt told dst) ~default:Pm.empty in
      let m = List.fold_left (fun m prefix -> Pm.remove prefix m) m u.Bgp.Message.withdrawn in
      let m = List.fold_left (fun m (prefix, a) -> Pm.add prefix a m) m u.Bgp.Message.announced in
      Hashtbl.replace told dst m
    | Bgp.Message.Open _ | Bgp.Message.Keepalive | Bgp.Message.Notification _ -> ());
    true
  in
  let r =
    Bgp.Router.create ~sim ~asn:me ~node_id:0 ~router_id:nh
      ~config:(Bgp.Config.no_jitter Bgp.Config.default) ~send ()
  in
  List.iter
    (fun n -> Bgp.Router.add_peer r ~peer_asn:(asn n) ~peer_node:n ~policy:Bgp.Policy.Customer)
    peers;
  let up n =
    Bgp.Router.handle_message r ~from:n
      (Bgp.Message.Open { asn = asn n; router_id = nh; hold_time = 0 })
  in
  List.iter up peers;
  let exported = Bgp.Attrs.make ~as_path:[ me ] ~next_hop:nh () in
  let originated = ref Pm.empty and ref_tables = ref Am.empty and touched = ref Pm.empty in
  List.iter (fun n -> ref_tables := Am.add (asn n) Pm.empty !ref_tables) peers;
  let agrees peer prefix =
    let want = Option.bind (Am.find_opt peer !ref_tables) (Pm.find_opt prefix) in
    match (Bgp.Router.adj_out_find r ~peer prefix, want) with
    | None, None -> true
    | Some g, Some w -> g == w
    | _ -> false
  in
  for step = 1 to 2000 do
    let n = Engine.Rng.pick rng peers in
    let peer = asn n and prefix = random_prefix rng in
    (match Engine.Rng.int rng 8 with
    | 0 | 1 | 2 ->
      Bgp.Router.originate r prefix;
      originated := Pm.add prefix () !originated;
      touched := Pm.add prefix () !touched;
      ref_tables := Am.map (Pm.add prefix exported) !ref_tables
    | 3 | 4 ->
      Bgp.Router.withdraw_origin r prefix;
      originated := Pm.remove prefix !originated;
      ref_tables := Am.map (Pm.remove prefix) !ref_tables
    | 5 ->
      if Bgp.Router.peer_established r peer then begin
        Bgp.Router.session_down r peer;
        Hashtbl.remove told n;
        ref_tables := Am.remove peer !ref_tables
      end
      else begin
        up n;
        ref_tables := Am.add peer (Pm.map (fun () -> exported) !originated) !ref_tables
      end
    | 6 ->
      let until = Engine.Time.add (Engine.Sim.now sim) (Engine.Time.sec 5) in
      ignore (Engine.Sim.run ~until sim)
    | _ ->
      ignore (Engine.Sim.run sim);
      List.iter
        (fun n ->
          let want = Option.value (Am.find_opt (asn n) !ref_tables) ~default:Pm.empty in
          let got = Option.value (Hashtbl.find_opt told n) ~default:Pm.empty in
          check_entries
            (Fmt.str "step %d: AS%d told, once quiet" step n)
            (Pm.bindings want) (Pm.bindings got);
          List.iter2
            (fun (_, w) (_, g) -> Alcotest.(check bool) "told attrs" true (w == g))
            (Pm.bindings want) (Pm.bindings got))
        peers);
    let probe = random_prefix rng in
    Alcotest.(check bool) (Fmt.str "step %d: find agrees" step) true (agrees peer probe);
    Alcotest.(check bool) (Fmt.str "step %d: changed prefix agrees" step) true (agrees peer prefix)
  done;
  List.iter
    (fun n ->
      Pm.iter
        (fun prefix () ->
          Alcotest.(check bool) (Fmt.str "final view of AS%d" n) true (agrees (asn n) prefix))
        !touched)
    peers

(* --- Small-topology end-to-end: table-backed Loc-RIBs vs a map mirror
   rebuilt from the best-route change stream of a real run -------------- *)

let test_small_topology_mirror () =
  let a = Topology.Artificial.asn in
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ a 1 ] in
  let exp = Framework.Experiment.create ~config:Framework.Config.fast_test ~seed:7 spec in
  let routers = Framework.Network.routers (Framework.Experiment.network exp) in
  let mirrors = Hashtbl.create 8 in
  Am.iter
    (fun asn router ->
      let mirror = ref Pm.empty in
      Hashtbl.replace mirrors asn mirror;
      Bgp.Router.subscribe_best_change router (fun prefix r ->
          match r with
          | Some r -> mirror := Pm.add prefix r !mirror
          | None -> mirror := Pm.remove prefix !mirror))
    routers;
  ignore (Framework.Experiment.announce exp (a 0));
  ignore (Framework.Experiment.settle exp);
  ignore (Framework.Experiment.announce exp (a 2));
  ignore (Framework.Experiment.announce exp (a 3));
  ignore (Framework.Experiment.settle exp);
  ignore (Framework.Experiment.withdraw exp (a 0));
  ignore (Framework.Experiment.settle exp);
  Am.iter
    (fun asn router ->
      let name = Fmt.str "AS%d Loc-RIB" (Net.Asn.to_int asn) in
      let want = Pm.bindings !(Hashtbl.find mirrors asn) in
      let got = Bgp.Router.loc_entries router in
      check_entries name want got;
      List.iter2
        (fun (_, w) (_, g) -> Alcotest.(check bool) (name ^ " route") true (same_route w g))
        want got)
    routers

let suite =
  [
    Alcotest.test_case "fib vs map (insert/remove/LPM/order)" `Quick test_fib_vs_map;
    Alcotest.test_case "prefix table vs map (set/remove/order)" `Quick test_table_vs_map;
    Alcotest.test_case "adj-in vs map reference" `Quick test_adj_in_differential;
    Alcotest.test_case "loc vs map reference" `Quick test_loc_differential;
    Alcotest.test_case "adj-out vs map reference" `Quick test_adj_out_differential;
    Alcotest.test_case "small topology loc mirror" `Quick test_small_topology_mirror;
  ]
