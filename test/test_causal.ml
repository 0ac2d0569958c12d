(* Engine.Causal: span store modes, parent-chain telescoping, critical-path
   attribution against measured convergence, deterministic exports (including
   under parallel sweeps), and the chaos flight recorder. *)

open Engine

let asn = Topology.Artificial.asn

let full_config =
  { Framework.Config.fast_test with Framework.Config.causal = Causal.Full }

(* --- Store modes --------------------------------------------------------- *)

let test_disabled_is_noop () =
  let sim = Sim.create ~seed:1 () in
  ignore (Sim.schedule_at sim (Time.ms 1) ignore);
  ignore (Sim.run sim);
  let c = Sim.causal sim in
  Alcotest.(check bool) "disabled" false (Causal.enabled c);
  Alcotest.(check int) "no spans opened" 0 (Causal.total c);
  Alcotest.(check int) "on_schedule yields -1" (-1)
    (Causal.on_schedule c ~category:(Causal.intern_category c "x") ~queued_at:Time.zero);
  (* annotate / with_span degrade to plain calls *)
  Sim.annotate sim ~category:"x" ();
  Alcotest.(check int) "annotate is a no-op" 0 (Causal.total c);
  Alcotest.(check int) "with_span runs the thunk" 7
    (Sim.with_span sim ~category:"x" (fun () -> 7))

let test_ring_exact () =
  let c = Causal.create ~mode:(Causal.Ring 4) ~seed:0 () in
  let category = Causal.intern_category c "e" in
  for _ = 1 to 10 do
    let id = Causal.on_schedule c ~category ~queued_at:Time.zero in
    Causal.on_execute c id ~fired_at:(Time.ms 1)
  done;
  Alcotest.(check int) "total eviction-proof" 10 (Causal.total c);
  Alcotest.(check int) "exactly capacity retained" 4 (Causal.stored c);
  Alcotest.(check bool) "evicted id gone" true (Causal.find c 0 = None);
  Alcotest.(check bool) "pre-window id gone" true (Causal.find c 5 = None);
  Alcotest.(check (list int)) "newest window, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (s : Causal.span) -> s.Causal.id) (Causal.spans c))

let test_trace_id_deterministic () =
  let id seed = Causal.trace_id (Causal.create ~mode:Causal.Full ~seed ()) in
  Alcotest.(check int) "same seed same id" (id 42) (id 42);
  Alcotest.(check bool) "different seeds differ" true (id 42 <> id 43)

(* The trace id comes from its own stream: minting it must not perturb the
   sim root RNG's draw order. *)
let test_trace_id_leaves_root_rng_alone () =
  let draws causal =
    let sim = Sim.create ~seed:5 ~causal () in
    List.init 8 (fun _ -> Rng.int (Sim.rng sim) 1000)
  in
  Alcotest.(check (list int)) "root RNG stream unchanged by tracing"
    (draws Causal.Disabled) (draws Causal.Full)

(* --- Allocation-free record path ----------------------------------------- *)

let packed_prefix s = Net.Ipv4.prefix_to_packed (Option.get (Net.Ipv4.prefix_of_string s))

(* Minor words [f] allocates, net of the measurement's own boxing. *)
let minor_words_of f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  measure f -. measure ignore

let round_at = Time.ms 5

let round_prefix = packed_prefix "10.1.2.0/24"

(* What a delivered event costs the store: schedule and execute it, with
   the hot-path markers (ASN and prefix labels) and an action span. *)
let record_rounds c rounds =
  let at = round_at and prefix = round_prefix in
  let action () = () in
  let deliver = Causal.intern_category c "net.deliver" and node = Causal.intern_node c "AS65001" in
  for i = 1 to rounds do
    let id = Causal.on_schedule c ~category:deliver ~queued_at:at in
    Causal.on_execute c id ~fired_at:at;
    Causal.mark c ~category:"bgp.update" ~node ~render:Net.Asn.int_to_string
      (65000 + (i land 15)) ~at;
    Causal.mark c ~category:"fib.write" ~node
      ~render:Net.Ipv4.packed_prefix_to_string prefix ~at;
    Causal.with_span c ~category:"action.withdraw" ~at action;
    Causal.clear_current c
  done

let test_record_path_allocation_free () =
  let rounds = 10_000 in
  let ring = Causal.create ~mode:(Causal.Ring 4096) ~seed:1 () in
  (* Fill the ring first: its slot arrays grow until they hold 4096. *)
  record_rounds ring 1000;
  let words = minor_words_of (fun () -> record_rounds ring rounds) in
  Alcotest.(check bool) "ring wrapped around" true (Causal.total ring > 2 * 4096);
  Alcotest.(check int) "ring keeps its window" 4096 (Causal.stored ring);
  (* Five record calls a round.  The bound is well under one word per
     call, so even one 2-word block per round (0.4) fails it. *)
  let per_op = words /. float_of_int (5 * rounds) in
  if per_op >= 0.1 then
    Alcotest.failf "Ring 4096 record path allocates %.2f minor words per operation" per_op;
  let off = Causal.create ~seed:1 () in
  Alcotest.(check (float 0.0)) "Disabled allocates nothing" 0.0
    (minor_words_of (fun () -> record_rounds off rounds))

(* Footprint fence: a wrapped [Ring 4096] holds four ints per span and
   its interned names, nothing per span beside them. *)
let test_ring_footprint () =
  let ring = Causal.create ~mode:(Causal.Ring 4096) ~seed:1 () in
  record_rounds ring 3000;
  Alcotest.(check bool) "ring wrapped around" true (Causal.total ring > 2 * 4096);
  let words = Obj.reachable_words (Obj.repr ring) in
  if words > (4 * 4096) + 2048 then
    Alcotest.failf "a wrapped Ring 4096 reaches %d words (bound %d)" words ((4 * 4096) + 2048)

(* Marker labels are rendered when read, exactly as the [pp] printers
   render them. *)
let test_marker_labels_render_like_pp () =
  let c = Causal.create ~mode:Causal.Full ~seed:1 () in
  let prefixes = [ "0.0.0.0/0"; "255.255.255.255/32"; "10.1.2.0/24" ] in
  let asns = [ 1; 65001; 0xFFFF_FFFF ] in
  let node = Causal.intern_node c "n" in
  List.iter
    (fun s ->
      Causal.mark c ~category:"fib.write" ~node ~render:Net.Ipv4.packed_prefix_to_string
        (packed_prefix s) ~at:Time.zero)
    prefixes;
  List.iter
    (fun n ->
      Causal.mark c ~category:"bgp.update" ~node ~render:Net.Asn.int_to_string n ~at:Time.zero)
    asns;
  let want =
    List.map
      (fun s -> Fmt.str "%a" Net.Ipv4.pp_prefix (Option.get (Net.Ipv4.prefix_of_string s)))
      prefixes
    @ List.map (fun n -> Fmt.str "%a" Net.Asn.pp (Net.Asn.of_int n)) asns
  in
  Alcotest.(check (list string)) "labels" want
    (List.map (fun (s : Causal.span) -> s.Causal.label) (Causal.spans c))

(* An exception out of an event action or a [with_span] thunk propagates
   and leaves no stale current span behind. *)
let test_exception_restores_current () =
  let sim = Sim.create ~seed:1 ~causal:(Causal.Ring 64) () in
  let c = Sim.causal sim in
  ignore (Sim.schedule_at ~category:"boom" sim (Time.ms 1) (fun () -> failwith "boom"));
  (match Sim.run sim with
  | _ -> Alcotest.fail "the action's exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "propagates out of Sim.run" "boom" msg);
  Alcotest.(check int) "current cleared" (-1) (Causal.current c);
  (match Causal.find c 0 with
  | Some s ->
    Alcotest.(check string) "the raising event's span" "boom" s.Causal.category;
    Alcotest.(check bool) "left closed" true s.Causal.closed
  | None -> Alcotest.fail "span missing");
  let outer = ref (-2) and after = ref (-2) in
  ignore
    (Sim.schedule_at ~category:"outer" sim (Time.ms 2) (fun () ->
         outer := Causal.current c;
         (match Sim.with_span sim ~category:"inner" (fun () -> failwith "inner") with
         | () -> Alcotest.fail "with_span swallowed the exception"
         | exception Failure _ -> ());
         after := Causal.current c));
  ignore (Sim.run sim);
  Alcotest.(check bool) "outer span current inside its action" true (!outer >= 0);
  Alcotest.(check int) "with_span restores the saved parent" !outer !after

(* --- Parent chains ------------------------------------------------------- *)

let test_parent_chain_telescopes () =
  let sim = Sim.create ~seed:3 ~causal:Causal.Full () in
  let c = Sim.causal sim in
  ignore
    (Sim.schedule_at ~category:"a" sim (Time.ms 10) (fun () ->
         ignore
           (Sim.schedule_after ~category:"b" sim (Time.ms 20) (fun () ->
                ignore (Sim.schedule_after ~category:"c" sim (Time.ms 5) ignore)))));
  ignore (Sim.run sim);
  let leaf =
    match Causal.find_last c (fun s -> s.Causal.category = "c") with
    | Some s -> s
    | None -> Alcotest.fail "leaf span missing"
  in
  let path = Causal.path_to_root c leaf in
  Alcotest.(check (list string)) "path categories root-first" [ "a"; "b"; "c" ]
    (List.map (fun (s : Causal.span) -> s.Causal.category) path);
  (* Each child is queued at the instant its parent fired. *)
  List.iteri
    (fun i (s : Causal.span) ->
      if i > 0 then
        let parent = List.nth path (i - 1) in
        Alcotest.(check int) "child queued at parent fire time"
          (Time.to_us parent.Causal.fired_at)
          (Time.to_us s.Causal.queued_at))
    path;
  let a = Causal.attribute c leaf in
  Alcotest.(check int) "depth" 3 a.Causal.depth;
  Alcotest.(check (float 1e-9)) "total telescopes to end-to-end" 0.035
    a.Causal.total_seconds;
  let sum = List.fold_left (fun acc r -> acc +. r.Causal.seconds) 0.0 a.Causal.rows in
  Alcotest.(check (float 1e-9)) "rows sum exactly to total" a.Causal.total_seconds sum

let test_annotate_and_with_span () =
  let sim = Sim.create ~seed:4 ~causal:Causal.Full () in
  let c = Sim.causal sim in
  Sim.with_span sim ~category:"scenario.action" ~label:"root" (fun () ->
      ignore
        (Sim.schedule_at ~category:"net.deliver" sim (Time.ms 2) (fun () ->
             Sim.annotate sim ~category:"fib.write" ~node:"AS65001" ~label:"p" ())));
  ignore (Sim.run sim);
  let leaf =
    match Causal.convergence_leaf c with
    | Some s -> s
    | None -> Alcotest.fail "fib.write marker missing"
  in
  Alcotest.(check string) "marker node" "AS65001" leaf.Causal.node;
  Alcotest.(check bool) "marker is zero-length" true
    (Time.equal leaf.Causal.queued_at leaf.Causal.fired_at);
  let path = Causal.path_to_root c leaf in
  Alcotest.(check (list string)) "rooted under the action"
    [ "scenario.action"; "net.deliver"; "fib.write" ]
    (List.map (fun (s : Causal.span) -> s.Causal.category) path)

let test_convergence_leaf_label_filter () =
  let sim = Sim.create ~seed:4 ~causal:Causal.Full () in
  let c = Sim.causal sim in
  Sim.annotate sim ~category:"fib.write" ~node:"a" ~label:"10.0.0.0/24" ();
  Sim.annotate sim ~category:"flow.install" ~node:"b" ~label:"10.0.1.0/24" ();
  (match Causal.convergence_leaf c with
  | Some s -> Alcotest.(check string) "newest write wins" "b" s.Causal.node
  | None -> Alcotest.fail "no leaf");
  match Causal.convergence_leaf ~label:"10.0.0.0/24" c with
  | Some s -> Alcotest.(check string) "label filter" "a" s.Causal.node
  | None -> Alcotest.fail "no labelled leaf"

(* --- Differential: the packed store against a list of spans ------------- *)

(* The reference keeps every span ever opened as a plain record, keyed by
   id, and answers every reader from the newest [window] of them. *)
type reference = {
  window : int;
  all : (int, Causal.span) Hashtbl.t;
  mutable next : int;
  mutable cur : int;
}

let ref_open r ~category ~node ~label ~at ~closed =
  let id = r.next in
  Hashtbl.replace r.all id
    { Causal.id; parent = r.cur; category; node; label; queued_at = at; fired_at = at; closed };
  r.next <- id + 1;
  id

let ref_retained r id = id >= 0 && id < r.next && id >= r.next - r.window

let ref_find r id = if ref_retained r id then Some (Hashtbl.find r.all id) else None

let ref_spans r =
  let first = Stdlib.max 0 (r.next - r.window) in
  List.init (r.next - first) (fun i -> Hashtbl.find r.all (first + i))

let ref_path r leaf =
  let rec up acc (s : Causal.span) =
    match ref_find r s.Causal.parent with Some p -> up (s :: acc) p | None -> s :: acc
  in
  up [] leaf

let ref_bucket = function
  | "net.deliver" -> "propagation"
  | "bgp.mrai" -> "mrai_hold"
  | "ctrl.recompute" -> "recompute"
  | "flow.install" | "flow.remove" -> "flow_install"
  | "bgp.process" -> "mailbox"
  | _ -> "other"

(* (total seconds, depth, rows by bucket name) *)
let ref_attribution r leaf =
  let path = ref_path r leaf in
  let sec a b = Time.to_sec_f (Time.diff a b) in
  let rows = Hashtbl.create 8 in
  List.iter
    (fun (s : Causal.span) ->
      let b = ref_bucket s.Causal.category in
      let secs, hops = Option.value (Hashtbl.find_opt rows b) ~default:(0.0, 0) in
      Hashtbl.replace rows b (secs +. sec s.Causal.fired_at s.Causal.queued_at, hops + 1))
    path;
  ( sec leaf.Causal.fired_at (List.hd path).Causal.queued_at,
    List.length path,
    List.sort compare (Hashtbl.fold (fun b (secs, hops) acc -> (b, secs, hops) :: acc) rows []) )

let attribution_of c leaf =
  let a = Causal.attribute c leaf in
  ( a.Causal.total_seconds,
    a.Causal.depth,
    List.sort compare
      (List.map
         (fun r -> (Causal.bucket_to_string r.Causal.bucket, r.Causal.seconds, r.Causal.hops))
         a.Causal.rows) )

(* The labels below need only quotes and backslashes escaped. *)
let ref_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

let ref_jsonl trace spans =
  String.concat ""
    (List.filter_map
       (fun (s : Causal.span) ->
         if not s.Causal.closed then None
         else
           Some
             (Printf.sprintf
                "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"category\":\"%s\",\"node\":\"%s\",\"label\":\"%s\",\"queued_us\":%d,\"fired_us\":%d}\n"
                trace s.Causal.id s.Causal.parent (ref_escape s.Causal.category)
                (ref_escape s.Causal.node) (ref_escape s.Causal.label)
                (Time.to_us s.Causal.queued_at) (Time.to_us s.Causal.fired_at)))
       spans)

let ref_chrome trace spans =
  let closed = List.filter (fun (s : Causal.span) -> s.Causal.closed) spans in
  let lanes =
    List.fold_left
      (fun acc (s : Causal.span) -> if List.mem s.Causal.node acc then acc else acc @ [ s.Causal.node ])
      [ "" ] closed
  in
  let rec lane n i = function
    | x :: rest -> if String.equal x n then i else lane n (i + 1) rest
    | [] -> assert false
  in
  let meta =
    List.mapi
      (fun i n ->
        Printf.sprintf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}" i
          (ref_escape (if n = "" then "engine" else n)))
      lanes
  in
  let events =
    List.map
      (fun (s : Causal.span) ->
        let ts = Time.to_us s.Causal.queued_at in
        Printf.sprintf
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"label\":\"%s\",\"trace\":%d}}"
          (ref_escape s.Causal.category) (ref_escape s.Causal.category) ts
          (Time.to_us s.Causal.fired_at - ts)
          (lane s.Causal.node 0 lanes) s.Causal.id s.Causal.parent (ref_escape s.Causal.label) trace)
      closed
  in
  "{\"traceEvents\":[" ^ String.concat "," (meta @ events) ^ "]}"

(* Pools the operations index into.  The last category equals
   "fib.write" by value but is built at run time, so interning must fall
   back from address to value. *)
let diff_categories =
  [| "net.deliver"; "bgp.mrai"; "fib.write"; "flow.install"; "flow.remove"; "ctrl.recompute";
     "bgp.process"; "chaos.fault"; String.concat "." [ "fib"; "write" ] |]

let diff_nodes = [| ""; "AS65001"; "AS4294967295"; "controller" |]

let diff_labels = [| ""; "10.0.0.0/24"; "quote\"and\\slash"; "p" |]

(* Marker renderers and immediates, with the edge values: the largest
   ASN and the packed 255.255.255.255/32. *)
let diff_args =
  [| (Net.Asn.int_to_string, 0xFFFF_FFFF); (Net.Ipv4.packed_prefix_to_string,
     packed_prefix "255.255.255.255/32"); (string_of_int, 0); (Net.Asn.int_to_string, 65001);
     (Net.Ipv4.packed_prefix_to_string, packed_prefix "0.0.0.0/0") |]

type op =
  | Schedule of int * int (* category, queued instant *)
  | Execute of int * int (* which scheduled span, fire instant *)
  | Clear
  | Annotate of int * int * int * int (* category, node, label, instant *)
  | Mark of int * int * int * int (* category, node, arg, instant *)
  | With_span of int * int * int * int * bool * op list (* ..., raises, body *)
  | Burst of int * bool (* n events, or n labelled markers *)

let rec pp_op ppf = function
  | Schedule (k, us) -> Format.fprintf ppf "Schedule(%d,%d)" k us
  | Execute (k, us) -> Format.fprintf ppf "Execute(%d,%d)" k us
  | Clear -> Format.fprintf ppf "Clear"
  | Annotate (k, n, l, us) -> Format.fprintf ppf "Annotate(%d,%d,%d,%d)" k n l us
  | Mark (k, n, a, us) -> Format.fprintf ppf "Mark(%d,%d,%d,%d)" k n a us
  | With_span (k, n, l, us, raises, body) ->
    Format.fprintf ppf "With_span(%d,%d,%d,%d,%b,[%a])" k n l us raises
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp_op)
      body
  | Burst (n, labelled) -> Format.fprintf ppf "Burst(%d,%b)" n labelled

(* Instants: mostly small, sometimes the packed layout's bound, one past
   it, or negative. *)
let gen_us =
  QCheck.Gen.(
    frequency
      [
        (12, int_range 0 5_000_000);
        (1, return Causal.max_us);
        (1, return (Causal.max_us + 1));
        (1, return (-1));
        (1, int_range 0 Causal.max_us);
      ])

let rec gen_op depth =
  let idx a = QCheck.Gen.int_bound (Array.length a - 1) in
  let leaf =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k us -> Schedule (k, us)) (idx diff_categories) gen_us);
          (4, map2 (fun k us -> Execute (k, us)) nat (int_range 0 (Causal.max_us + 10)));
          (1, return Clear);
          ( 2,
            map4 (fun k n l us -> Annotate (k, n, l, us)) (idx diff_categories) (idx diff_nodes)
              (idx diff_labels) gen_us );
          ( 3,
            map4 (fun k n a us -> Mark (k, n, a, us)) (idx diff_categories) (idx diff_nodes)
              (idx diff_args) gen_us );
          (1, map2 (fun n l -> Burst (n, l)) (int_range 1 300) bool);
        ])
  in
  if depth = 0 then leaf
  else
    QCheck.Gen.(
      frequency
        [
          (8, leaf);
          ( 1,
            map3
              (fun (k, n, l) (us, raises) body -> With_span (k, n, l, us, raises, body))
              (triple (idx diff_categories) (idx diff_nodes) (idx diff_labels))
              (pair gen_us bool)
              (list_size (int_bound 4) (gen_op (depth - 1))) );
        ])

exception Body_raised

let in_range us = us >= 0 && us <= Causal.max_us

(* Run [op] on the store and the reference; an out-of-range instant must
   raise [Invalid_argument] and change neither. *)
let rec apply c r node_ids scheduled op =
  let rejects f =
    match f () with
    | () -> QCheck.Test.fail_reportf "%a: an out-of-range instant was accepted" pp_op op
    | exception Invalid_argument _ -> ()
  in
  match op with
  | Schedule (k, us) ->
    let category = diff_categories.(k) and at = Time.of_us us in
    let record () = Causal.on_schedule c ~category:(Causal.intern_category c category) ~queued_at:at in
    if in_range us then begin
      let id = record () in
      let rid = ref_open r ~category ~node:"" ~label:"" ~at ~closed:false in
      if id <> rid then QCheck.Test.fail_reportf "%a: id %d, reference %d" pp_op op id rid;
      scheduled := id :: !scheduled
    end
    else rejects (fun () -> ignore (record ()))
  | Execute (k, us) -> (
    match !scheduled with
    | [] -> ()
    | l ->
      let id = List.nth l (k mod List.length l) in
      Causal.on_execute c id ~fired_at:(Time.of_us us);
      let s = Hashtbl.find r.all id in
      Hashtbl.replace r.all id { s with Causal.fired_at = Time.of_us us; closed = true };
      r.cur <- id)
  | Clear ->
    Causal.clear_current c;
    r.cur <- -1
  | Annotate (k, n, l, us) ->
    let category = diff_categories.(k) and node = diff_nodes.(n) and label = diff_labels.(l) in
    let at = Time.of_us us in
    let record () =
      if n = 0 then Causal.annotate c ~category ~label ~at ()
      else Causal.annotate c ~category ~node ~label ~at ()
    in
    if in_range us then begin
      record ();
      ignore (ref_open r ~category ~node ~label ~at ~closed:true)
    end
    else rejects record
  | Mark (k, n, a, us) ->
    let category = diff_categories.(k) and render, arg = diff_args.(a) in
    let at = Time.of_us us in
    let record () = Causal.mark c ~category ~node:node_ids.(n) ~render arg ~at in
    if in_range us then begin
      record ();
      ignore (ref_open r ~category ~node:diff_nodes.(n) ~label:(render arg) ~at ~closed:true)
    end
    else rejects record
  | With_span (k, n, l, us, raises, body) ->
    let category = diff_categories.(k) and node = diff_nodes.(n) and label = diff_labels.(l) in
    let at = Time.of_us us and saved = r.cur in
    let ran = ref false in
    let thunk () =
      ran := true;
      r.cur <- ref_open r ~category ~node ~label ~at ~closed:true;
      List.iter (apply c r node_ids scheduled) body;
      if raises then raise Body_raised
    in
    (match Causal.with_span c ~category ~node ~label ~at thunk with
    | () -> ()
    | exception Body_raised -> ()
    | exception Invalid_argument _ when not (in_range us) -> ());
    r.cur <- saved;
    if !ran <> in_range us then
      QCheck.Test.fail_reportf "%a: the body ran %b for instant %d" pp_op op !ran us
  | Burst (n, labelled) ->
    for i = 1 to n do
      apply c r node_ids scheduled
        (if labelled then Annotate (i mod 9, i mod 4, 1 + (i mod 3), i) else Schedule (i mod 9, i))
    done

let check_readers c r =
  let fail what = QCheck.Test.fail_reportf "%s differs from the reference" what in
  let spans = ref_spans r in
  if Causal.total c <> r.next then fail "total";
  if Causal.stored c <> List.length spans then fail "stored";
  if Causal.current c <> r.cur then fail "current";
  if Causal.spans c <> spans then fail "spans";
  for id = -1 to r.next do
    if Causal.find c id <> ref_find r id then fail (Printf.sprintf "find %d" id)
  done;
  List.iter
    (fun (what, pred) ->
      let want = List.fold_left (fun acc s -> if pred s then Some s else acc) None spans in
      if Causal.find_last c pred <> want then fail ("find_last " ^ what))
    [
      ("category", fun (s : Causal.span) -> s.Causal.category = "bgp.mrai");
      ("open", fun (s : Causal.span) -> not s.Causal.closed);
      ("node", fun (s : Causal.span) -> s.Causal.node = "controller");
    ];
  List.iter
    (fun (s : Causal.span) ->
      if Causal.path_to_root c s <> ref_path r s then fail (Printf.sprintf "path_to_root %d" s.Causal.id);
      if attribution_of c s <> ref_attribution r s then
        fail (Printf.sprintf "attribute %d" s.Causal.id))
    spans;
  List.iter
    (fun label ->
      let want =
        List.fold_left
          (fun acc (s : Causal.span) ->
            let write =
              List.mem s.Causal.category [ "fib.write"; "flow.install"; "flow.remove" ]
            in
            if write && Option.fold ~none:true ~some:(String.equal s.Causal.label) label then Some s
            else acc)
          None spans
      in
      if Causal.convergence_leaf ?label c <> want then fail "convergence_leaf")
    (None :: List.map Option.some (Array.to_list diff_labels @ [ "255.255.255.255/32" ]));
  let trace = Causal.trace_id c in
  if Causal.to_jsonl c <> ref_jsonl trace spans then fail "to_jsonl";
  if Causal.to_chrome c <> ref_chrome trace spans then fail "to_chrome";
  let lines =
    List.filter_map
      (fun (s : Causal.span) -> if s.Causal.closed then Some (Causal.render_line s) else None)
      spans
  in
  if Causal.flight_lines c <> lines then fail "flight_lines"

let prop_store_matches_reference =
  QCheck.Test.make ~name:"store = list-of-spans reference" ~count:150
    (QCheck.make
       ~print:(Fmt.str "%a" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_op))
       QCheck.Gen.(list_size (int_range 1 40) (gen_op 2)))
    (fun ops ->
      List.iter
        (fun (mode, window) ->
          let c = Causal.create ~mode ~seed:9 () in
          let r = { window; all = Hashtbl.create 64; next = 0; cur = -1 } in
          let node_ids = Array.map (Causal.intern_node c) diff_nodes in
          let scheduled = ref [] in
          List.iter
            (fun op ->
              apply c r node_ids scheduled op;
              if Causal.current c <> r.cur || Causal.total c <> r.next then
                QCheck.Test.fail_reportf "%a: current or total differs" pp_op op)
            ops;
          check_readers c r)
        [
          (Causal.Ring 1, 1);
          (Causal.Ring 3, 3);
          (Causal.Ring 4, 4);
          (Causal.Ring 5, 5);
          (Causal.Ring 4096, 4096);
          (Causal.Full, max_int);
        ];
      true)

(* --- End-to-end: attribution vs. measured convergence -------------------- *)

(* The acceptance bar: on a seeded clique withdrawal the critical-path
   attribution table sums to the measured convergence time, because every
   child span is queued at its parent's fire instant and the waits
   telescope from the action root to the final FIB write. *)
let test_clique_attribution_matches_convergence () =
  let exp = ref None in
  let r =
    Framework.Experiments.(
      run
        ~on_boot:(fun e -> exp := Some e)
        (describe ~config:full_config ~seed:2014 (Graph (Topology.Artificial.clique 6))))
  in
  let seconds = r.Framework.Experiments.seconds in
  let exp = Option.get !exp in
  let c = Sim.causal (Framework.Experiment.sim exp) in
  let label =
    Net.Ipv4.prefix_to_string (Framework.Experiment.default_prefix exp (asn 0))
  in
  let leaf =
    match Causal.convergence_leaf ~label c with
    | Some s -> s
    | None -> Alcotest.fail "no FIB write for the withdrawn prefix"
  in
  let a = Causal.attribute c leaf in
  Alcotest.(check bool) "non-trivial path" true (a.Causal.depth > 3);
  Alcotest.(check (float 1e-6)) "attribution sums to convergence time" seconds
    a.Causal.total_seconds;
  let sum = List.fold_left (fun acc r -> acc +. r.Causal.seconds) 0.0 a.Causal.rows in
  Alcotest.(check (float 1e-9)) "rows sum to total" a.Causal.total_seconds sum;
  (* A 6-clique withdrawal under MRAI pacing is dominated by MRAI holds. *)
  match a.Causal.rows with
  | top :: _ ->
    Alcotest.(check string) "mrai dominates" "mrai_hold"
      (Causal.bucket_to_string top.Causal.bucket)
  | [] -> Alcotest.fail "empty attribution"

(* --- Deterministic exports (sequential and under Pool) ------------------- *)

let chrome_of_run seed =
  let sim = ref None in
  ignore
    Framework.Experiments.(
      run
        ~on_boot:(fun e -> sim := Some (Framework.Experiment.sim e))
        (describe ~members:(Last 2) ~config:full_config ~seed
           (Graph (Topology.Artificial.clique 5))));
  Causal.to_chrome (Sim.causal (Option.get !sim))

let test_same_seed_byte_identical () =
  let a = chrome_of_run 7 and b = chrome_of_run 7 in
  Alcotest.(check string) "sequential repeat" a b;
  let parallel =
    Pool.with_pool ~jobs:2 (fun pool -> Pool.map pool chrome_of_run [ 7; 7; 9 ])
  in
  (match parallel with
  | [ x; y; z ] ->
    Alcotest.(check string) "parallel run matches sequential" a x;
    Alcotest.(check string) "parallel same-seed pair agrees" x y;
    Alcotest.(check bool) "different seed differs" true (a <> z)
  | _ -> Alcotest.fail "pool returned wrong arity")

let test_exports_are_valid_json () =
  let sim = Sim.create ~seed:11 ~causal:Causal.Full () in
  Sim.with_span sim ~category:"action" ~label:"quote\"and\\slash" (fun () ->
      ignore (Sim.schedule_at ~category:"net.deliver" sim (Time.ms 1) ignore));
  ignore (Sim.run sim);
  let c = Sim.causal sim in
  Alcotest.(check bool) "chrome export is valid JSON" true
    (Framework.Telemetry.json_valid (Causal.to_chrome c));
  String.split_on_char '\n' (Causal.to_jsonl c)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun l ->
         Alcotest.(check bool) "jsonl line is valid JSON" true
           (Framework.Telemetry.json_valid l))

(* Cancelled events leave their spans open; exporters must skip them. *)
let test_cancelled_events_not_exported () =
  let sim = Sim.create ~seed:12 ~causal:Causal.Full () in
  let h = Sim.schedule_at ~category:"doomed" sim (Time.ms 5) ignore in
  ignore (Sim.schedule_at ~category:"kept" sim (Time.ms 1) ignore);
  Sim.cancel h;
  ignore (Sim.run sim);
  let c = Sim.causal sim in
  let chrome = Causal.to_chrome c in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "executed span exported" true (contains "kept" chrome);
  Alcotest.(check bool) "cancelled span skipped" false (contains "doomed" chrome)

(* Tracing never changes results: trace ids come from a dedicated RNG
   stream, so the same seeded withdrawal converges identically with
   tracing disabled, on the default flight-recorder ring and with full
   retention. *)
let test_mode_leaves_result_alone () =
  let run causal =
    let config = { Framework.Config.default with Framework.Config.causal } in
    let r = Framework.Experiments.(run (describe ~members:(Last 8) ~config ~seed:67 (Clique 16))) in
    Framework.Experiments.(r.seconds, r.changes, r.collector_updates)
  in
  let disabled = run Causal.Disabled in
  List.iter
    (fun (name, mode) ->
      Alcotest.(check (triple (float 0.0) int int)) name disabled (run mode))
    [ ("ring 4096", Causal.Ring 4096); ("full", Causal.Full) ]

(* --- Flight recorder ----------------------------------------------------- *)

(* The framework default keeps a bounded ring alive on every network, so a
   flight dump is always available without opting into Full tracing. *)
let test_ring_always_on_in_framework () =
  let net =
    Framework.Network.create ~seed:3 (Topology.Artificial.clique 4)
  in
  Framework.Network.start net;
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  ignore (Framework.Network.settle net);
  let c = Sim.causal (Framework.Network.sim net) in
  (match Causal.mode c with
  | Causal.Ring _ -> ()
  | _ -> Alcotest.fail "framework default must be a flight-recorder ring");
  Alcotest.(check bool) "flight dump non-empty" true (Causal.flight_lines c <> []);
  Alcotest.(check bool) "ring stayed bounded" true
    (Causal.stored c <= 4096 && Causal.total c > 0)

(* A chaos violation renders its flight dump into the report. *)
let test_chaos_violation_renders_flight () =
  let schedule = { Framework.Chaos.index = 0; events = [] } in
  let fabricated =
    {
      Framework.Chaos.schedule;
      quiesced = true;
      violations =
        [ { Framework.Chaos.invariant = "no-forwarding-loop"; detail = "synthetic" } ];
      digest = "d41d8cd98f00b204e9800998ecf8427e";
      flight = [ "000000001000 #1<-0 chaos.fault (wait 10us)" ];
    }
  in
  let rendered = Framework.Chaos.render_result fabricated in
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names the flight recorder" true
    (contains "flight recorder" rendered);
  Alcotest.(check bool) "report carries the spans" true
    (contains "chaos.fault" rendered);
  (* Clean runs carry no dump. *)
  let clean = { fabricated with Framework.Chaos.violations = []; flight = [] } in
  Alcotest.(check bool) "clean run has no dump" false
    (contains "flight recorder" (Framework.Chaos.render_result clean))

(* End to end through [Chaos.execute]: a link flapping every second for
   far longer than the 180 s quiet budget forces a real "quiescence"
   violation, which must auto-dump the flight recorder from the run's
   own ring store. *)
let test_chaos_execute_dumps_flight () =
  let a = Topology.Artificial.asn 0 and b = Topology.Artificial.asn 1 in
  let schedule =
    {
      Framework.Chaos.index = 0;
      events =
        [
          {
            Framework.Chaos.at = Engine.Time.sec 12;
            heal_at = Engine.Time.sec 13;
            fault = Framework.Scenario.Flap (a, b, 220);
          };
        ];
    }
  in
  let r = Framework.Chaos.execute ~seed:2014 schedule in
  Alcotest.(check bool) "run does not quiesce" false r.Framework.Chaos.quiesced;
  Alcotest.(check bool) "violations reported" true (r.Framework.Chaos.violations <> []);
  Alcotest.(check bool) "flight recorder auto-dumped" true
    (r.Framework.Chaos.flight <> []);
  (* The dump is the causal history into the bad state: the injected
     fault's spans must be visible in it. *)
  let contains needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dump shows the chaos fault spans" true
    (List.exists (contains "chaos.") r.Framework.Chaos.flight);
  (* The dump itself is pinned, so the recorder's store layout cannot
     change what it renders. *)
  Alcotest.(check int) "flight lines" 3310 (List.length r.Framework.Chaos.flight);
  Alcotest.(check string) "flight dump digest" "9edb906d31f838e4bcd637601bf2443c"
    (Digest.to_hex (Digest.string (String.concat "\n" r.Framework.Chaos.flight)))

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "ring keeps exactly n newest" `Quick test_ring_exact;
    Alcotest.test_case "trace id deterministic" `Quick test_trace_id_deterministic;
    Alcotest.test_case "trace id leaves root RNG alone" `Quick
      test_trace_id_leaves_root_rng_alone;
    Alcotest.test_case "record path allocation-free" `Quick test_record_path_allocation_free;
    Alcotest.test_case "ring footprint fence" `Quick test_ring_footprint;
    Alcotest.test_case "marker labels render like pp" `Quick test_marker_labels_render_like_pp;
    Alcotest.test_case "exception restores current span" `Quick test_exception_restores_current;
    Alcotest.test_case "parent chain telescopes" `Quick test_parent_chain_telescopes;
    Alcotest.test_case "annotate and with_span" `Quick test_annotate_and_with_span;
    Alcotest.test_case "convergence leaf label filter" `Quick
      test_convergence_leaf_label_filter;
    QCheck_alcotest.to_alcotest prop_store_matches_reference;
    Alcotest.test_case "clique attribution = convergence" `Quick
      test_clique_attribution_matches_convergence;
    Alcotest.test_case "same seed byte-identical (incl. pool)" `Quick
      test_same_seed_byte_identical;
    Alcotest.test_case "exports are valid JSON" `Quick test_exports_are_valid_json;
    Alcotest.test_case "cancelled events not exported" `Quick
      test_cancelled_events_not_exported;
    Alcotest.test_case "tracing mode leaves results alone" `Quick
      test_mode_leaves_result_alone;
    Alcotest.test_case "framework ring always on" `Quick test_ring_always_on_in_framework;
    Alcotest.test_case "chaos violation renders flight" `Quick
      test_chaos_violation_renders_flight;
    Alcotest.test_case "chaos execute dumps flight (end to end)" `Slow
      test_chaos_execute_dumps_flight;
  ]
