(* Deterministic causal span tracing.  See causal.mli for the contract.

   The store is one flat [int array] of four ints per slot; span id [i]
   lives in slot [i land mask]:

     word 0  parent span id
     word 1  queued us lsl 12, category index lsl 2, kind
     word 2  event: fired us, -1 while open; render marker: the arg;
             label marker: the label's index in [labels], -1 for ""
     word 3  node index lsl 8, renderer index

   so an instant must fit in 50 bits ([max_us], about 35 years) and a
   store holds at most 1,024 categories and 256 renderers.  Categories,
   node names and renderers are interned to those indexes once: a
   scheduler category when [Sim] first meets it, a node when its
   component is built, a marker's category and renderer by a scan by
   physical equality over a few entries.  The rare string labels of
   [annotate] and [with_span] go into a side ring allocated on first
   use.  The record path ([on_schedule], [on_execute], [annotate],
   [mark], [with_span]) thus stores only ints, so it passes no write
   barrier, and once a ring has reached its size it allocates nothing.

   The slot array starts at 256 slots and doubles as spans arrive: a
   [Ring n] store stops at the power of two >= n and then wraps around
   (a span is retained iff its id is among the newest [window] = n ids),
   a [Full] store keeps doubling.  A short run thus holds only the slots
   it used.  Ids are dense sequence numbers, so no RNG draw happens per
   span — the only randomness is the run's trace id, minted once at
   [create] from a dedicated stream so the sim root RNG's draw order is
   untouched.  [span] records and rendered labels are built only by the
   readers. *)

type mode = Disabled | Ring of int | Full

type span = {
  id : int;
  parent : int;
  category : string;
  node : string;
  label : string;
  queued_at : Time.t;
  fired_at : Time.t;
  closed : bool;
}

(* Slot kinds (word 1's low two bits). *)
let event = 0

let label_marker = 1

let render_marker = 2

let us_shift = 12

let max_us = max_int asr us_shift

let max_categories = 1024

let max_renders = 256

type t = {
  mode : mode;
  trace_id : int;
  window : int; (* spans retained: n for [Ring n], max_int for Full *)
  max_slots : int; (* the power of two >= n for [Ring n], max_int for Full *)
  mutable mask : int; (* slots - 1: the slot of id i is i land mask *)
  mutable slots : int array; (* 4 words per slot *)
  mutable next_id : int; (* = total spans ever opened *)
  mutable current : int; (* span of the event now executing, -1 at top *)
  mutable categories : string array; (* first [ncategories] used *)
  mutable ncategories : int;
  mutable nodes : string array; (* first [nnodes] used; node 0 is "" *)
  mutable nnodes : int;
  node_index : (string, int) Hashtbl.t;
  mutable renders : (int -> string) array; (* first [nrenders] used *)
  mutable nrenders : int;
  mutable labels : string array; (* side ring; empty until the first label *)
  mutable next_label : int;
}

(* The trace id comes from a stream keyed off the seed xor "caus" so it
   is stable per seed yet independent of every other subsystem stream. *)
let mint_trace_id seed =
  let rng = Rng.create (seed lxor 0x6361_7573) in
  Int64.to_int (Rng.next_int64 rng) land 0x3FFF_FFFF_FFFF

let no_render : int -> string = fun _ -> ""

let create ?(mode = Disabled) ~seed () =
  let window, max_slots =
    match mode with
    | Disabled -> (0, 0)
    | Ring r ->
      let rec pow2 k = if k >= r then k else pow2 (2 * k) in
      (Stdlib.max 1 r, pow2 1)
    | Full -> (max_int, max_int)
  in
  let n = Stdlib.min 256 max_slots in
  {
    mode;
    trace_id = mint_trace_id seed;
    window;
    max_slots;
    mask = n - 1;
    slots = Array.make (4 * n) 0;
    next_id = 0;
    current = -1;
    categories = Array.make 16 "";
    ncategories = 0;
    nodes = Array.make 16 "";
    nnodes = 1;
    node_index = Hashtbl.create 16;
    renders = Array.make 4 no_render;
    nrenders = 0;
    labels = [||];
    next_label = 0;
  }

let mode t = t.mode

let enabled t = match t.mode with Disabled -> false | Ring _ | Full -> true

let trace_id t = t.trace_id

let total t = t.next_id

let stored t = Stdlib.min t.next_id t.window

let retained t id = id >= 0 && id < t.next_id && id >= t.next_id - t.window

(* --- Interning ------------------------------------------------------------ *)

(* [a] with room for one more entry past its first [n]. *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* Top-level scans, so a lookup builds no closure; monomorphic, so an
   array read needs no float-array check. *)
let rec index_by_address (a : string array) n x i =
  if i = n then -1 else if Array.unsafe_get a i == x then i else index_by_address a n x (i + 1)

let rec index_by_value (a : string array) n x i =
  if i = n then -1 else if String.equal (Array.unsafe_get a i) x then i else index_by_value a n x (i + 1)

let add_category t name =
  let i = index_by_value t.categories t.ncategories name 0 in
  if i >= 0 then i
  else begin
    if t.ncategories = max_categories then
      invalid_arg (Printf.sprintf "Causal: more than %d span categories" max_categories);
    t.categories <- room t.categories t.ncategories "";
    t.categories.(t.ncategories) <- name;
    t.ncategories <- t.ncategories + 1;
    t.ncategories - 1
  end

(* Categories are nearly always string literals, so the scan by address
   almost always hits; a string built at run time falls back to a scan by
   value. *)
let category_index t name =
  let i = index_by_address t.categories t.ncategories name 0 in
  if i >= 0 then i else add_category t name

let intern_category t name = if enabled t then category_index t name else 0

let add_node t name =
  let i = t.nnodes in
  t.nodes <- room t.nodes i "";
  t.nodes.(i) <- name;
  t.nnodes <- i + 1;
  Hashtbl.add t.node_index name i;
  i

let node_index t name =
  if String.equal name "" then 0
  else match Hashtbl.find_opt t.node_index name with Some i -> i | None -> add_node t name

let intern_node t name = if enabled t then node_index t name else 0

let rec render_by_address (a : (int -> string) array) n f i =
  if i = n then -1 else if Array.unsafe_get a i == f then i else render_by_address a n f (i + 1)

let render_index t f =
  let i = render_by_address t.renders t.nrenders f 0 in
  if i >= 0 then i
  else begin
    if t.nrenders = max_renders then
      invalid_arg (Printf.sprintf "Causal.mark: more than %d renderers" max_renders);
    t.renders <- room t.renders t.nrenders no_render;
    t.renders.(t.nrenders) <- f;
    t.nrenders <- t.nrenders + 1;
    t.nrenders - 1
  end

(* --- Readers: the only place a [span] is built or a label rendered ------- *)

let span_of t id =
  let o = (id land t.mask) lsl 2 in
  let a = t.slots in
  let w1 = a.(o + 1) and w2 = a.(o + 2) and w3 = a.(o + 3) in
  let kind = w1 land 3 and queued = w1 lsr us_shift in
  let label =
    if kind = render_marker then t.renders.(w3 land (max_renders - 1)) w2
    else if kind = label_marker && w2 >= 0 then t.labels.(w2 land (Array.length t.labels - 1))
    else ""
  in
  let closed = kind <> event || w2 >= 0 in
  {
    id;
    parent = a.(o);
    category = t.categories.((w1 lsr 2) land (max_categories - 1));
    node = t.nodes.(w3 lsr 8);
    label;
    queued_at = Time.of_us queued;
    fired_at = Time.of_us (if kind = event && closed then w2 else queued);
    closed;
  }

let find t id = if retained t id then Some (span_of t id) else None

let spans t =
  let n = stored t in
  let first = t.next_id - n in
  List.init n (fun i -> span_of t (first + i))

let find_last t pred =
  let first = t.next_id - stored t in
  let rec scan i =
    if i < first then None
    else
      let s = span_of t i in
      if pred s then Some s else scan (i - 1)
  in
  scan (t.next_id - 1)

(* --- Record path ---------------------------------------------------------- *)

let out_of_range us =
  invalid_arg (Printf.sprintf "Causal: instant %dus is outside 0..%d" us max_us)

let check_us us = if us < 0 || us > max_us then out_of_range us

let grow t =
  let n = t.mask + 1 in
  let b = Array.make (8 * n) 0 in
  Array.blit t.slots 0 b 0 (4 * n);
  t.slots <- b;
  t.mask <- (2 * n) - 1

(* Write a span parented under the current one and return its id.
   Callers have checked the store is enabled and [queued] is in range. *)
let open_slot t ~kind ~category ~queued w2 w3 =
  let id = t.next_id in
  if id = t.mask + 1 && id < t.max_slots then grow t;
  let o = (id land t.mask) lsl 2 in
  let a = t.slots in
  a.(o) <- t.current;
  a.(o + 1) <- (queued lsl us_shift) lor (category lsl 2) lor kind;
  a.(o + 2) <- w2;
  a.(o + 3) <- w3;
  t.next_id <- id + 1;
  id

let on_schedule t ~category ~queued_at =
  match t.mode with
  | Disabled -> -1
  | Ring _ | Full ->
    let queued = Time.to_us queued_at in
    check_us queued;
    open_slot t ~kind:event ~category ~queued (-1) 0

let on_execute t id ~fired_at =
  if id >= 0 then begin
    if retained t id then t.slots.(((id land t.mask) lsl 2) + 2) <- Time.to_us fired_at;
    (* Even an evicted span remains the causal parent of whatever its
       action schedules: children record the id regardless. *)
    t.current <- id
  end

let current t = t.current

let clear_current t = t.current <- -1

let push_label t label =
  let n = t.next_label in
  let len = Array.length t.labels in
  if n = len && n < t.max_slots then begin
    let b = Array.make (if len = 0 then Stdlib.min 16 t.max_slots else 2 * len) "" in
    Array.blit t.labels 0 b 0 len;
    t.labels <- b
  end;
  t.labels.(n land (Array.length t.labels - 1)) <- label;
  t.next_label <- n + 1;
  n

(* A marker with a string label: a label costs one cell of the side ring,
   and [""] costs none. *)
let label_marker_span t ~category ~node ~label ~at =
  let us = Time.to_us at in
  check_us us;
  let category = category_index t category in
  let node = node_index t node in
  let l = if String.equal label "" then -1 else push_label t label in
  open_slot t ~kind:label_marker ~category ~queued:us l (node lsl 8)

let annotate t ~category ?(node = "") ?(label = "") ~at () =
  match t.mode with
  | Disabled -> ()
  | Ring _ | Full -> ignore (label_marker_span t ~category ~node ~label ~at)

let mark t ~category ~node ~render arg ~at =
  match t.mode with
  | Disabled -> ()
  | Ring _ | Full ->
    let us = Time.to_us at in
    check_us us;
    if node < 0 || node >= t.nnodes then invalid_arg "Causal.mark: node was not interned";
    let category = category_index t category in
    let r = render_index t render in
    ignore (open_slot t ~kind:render_marker ~category ~queued:us arg ((node lsl 8) lor r))

let with_span t ~category ?(node = "") ?(label = "") ~at f =
  match t.mode with
  | Disabled -> f ()
  | Ring _ | Full -> (
    let id = label_marker_span t ~category ~node ~label ~at in
    let saved = t.current in
    t.current <- id;
    match f () with
    | v ->
      t.current <- saved;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.current <- saved;
      Printexc.raise_with_backtrace e bt)

(* Critical path *)

type bucket =
  | Propagation
  | Mrai_hold
  | Session_backoff
  | Recompute
  | Flow_install
  | Mailbox
  | Other

let bucket_of_category = function
  | "net.deliver" | "link" | "data" -> Propagation
  | "bgp.mrai" -> Mrai_hold
  | "bgp.liveness" | "bgp.reconnect" | "speaker.liveness" | "sdn.liveness" ->
      Session_backoff
  | "ctrl.recompute" | "ctrl.update" | "controller" -> Recompute
  | "flow.install" | "flow.remove" | "sdn.timeout" | "switch" -> Flow_install
  | "node" | "node.deliver" | "bgp.process" -> Mailbox
  | _ -> Other

let bucket_to_string = function
  | Propagation -> "propagation"
  | Mrai_hold -> "mrai_hold"
  | Session_backoff -> "session_backoff"
  | Recompute -> "recompute"
  | Flow_install -> "flow_install"
  | Mailbox -> "mailbox"
  | Other -> "other"

let bucket_rank = function
  | Propagation -> 0
  | Mrai_hold -> 1
  | Session_backoff -> 2
  | Recompute -> 3
  | Flow_install -> 4
  | Mailbox -> 5
  | Other -> 6

let all_buckets =
  [ Propagation; Mrai_hold; Session_backoff; Recompute; Flow_install; Mailbox; Other ]

let path_to_root t leaf =
  let rec up acc s =
    if s.parent < 0 then s :: acc
    else
      match find t s.parent with
      | Some p -> up (s :: acc) p
      | None -> s :: acc (* ancestor evicted from the ring *)
  in
  up [] leaf

type attribution_row = { bucket : bucket; seconds : float; hops : int }

type attribution = {
  rows : attribution_row list;
  total_seconds : float;
  depth : int;
}

let attribute t leaf =
  let path = path_to_root t leaf in
  let head = List.hd path in
  let total_seconds = Time.to_sec_f (Time.diff leaf.fired_at head.queued_at) in
  let secs = Array.make 7 0.0 and hops = Array.make 7 0 in
  List.iter
    (fun s ->
      let i = bucket_rank (bucket_of_category s.category) in
      secs.(i) <- secs.(i) +. Time.to_sec_f (Time.diff s.fired_at s.queued_at);
      hops.(i) <- hops.(i) + 1)
    path;
  let rows =
    List.filter_map
      (fun b ->
        let i = bucket_rank b in
        if hops.(i) = 0 then None
        else Some { bucket = b; seconds = secs.(i); hops = hops.(i) })
      all_buckets
  in
  let rows =
    List.stable_sort
      (fun a b ->
        match Stdlib.compare b.seconds a.seconds with
        | 0 -> Stdlib.compare (bucket_rank a.bucket) (bucket_rank b.bucket)
        | c -> c)
      rows
  in
  { rows; total_seconds; depth = List.length path }

let is_dataplane_write = function
  | "fib.write" | "flow.install" | "flow.remove" -> true
  | _ -> false

(* Like [find_last], but the category is tested on the raw slot so only
   data-plane writes get their label rendered. *)
let convergence_leaf ?label t =
  let first = t.next_id - stored t in
  let rec scan i =
    if i < first then None
    else
      let w1 = t.slots.(((i land t.mask) lsl 2) + 1) in
      if not (is_dataplane_write t.categories.((w1 lsr 2) land (max_categories - 1))) then
        scan (i - 1)
      else
        let s = span_of t i in
        match label with
        | Some l when not (String.equal s.label l) -> scan (i - 1)
        | Some _ | None -> Some s
  in
  scan (t.next_id - 1)

let pp_attribution ppf a =
  Format.fprintf ppf "critical path: depth %d, total %.6fs@," a.depth
    a.total_seconds;
  List.iter
    (fun r ->
      let pct =
        if a.total_seconds > 0.0 then 100.0 *. r.seconds /. a.total_seconds
        else 0.0
      in
      Format.fprintf ppf "  %-16s %12.6fs  %5.1f%%  %d hop%s@,"
        (bucket_to_string r.bucket) r.seconds pct r.hops
        (if r.hops = 1 then "" else "s"))
    a.rows

(* Exporters.  Both render only closed spans (a span left open belongs
   to a cancelled event) so the output is a pure deterministic function
   of the retained store. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Thread lanes: one per emitting node, numbered by first appearance so
   the mapping is deterministic.  Anonymous engine events share lane 0. *)
let lane_table spans_list =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Hashtbl.add tbl "" 0;
  order := [ "" ];
  List.iter
    (fun s ->
      if not (Hashtbl.mem tbl s.node) then begin
        Hashtbl.add tbl s.node (Hashtbl.length tbl);
        order := s.node :: !order
      end)
    spans_list;
  (tbl, List.rev !order)

let to_chrome t =
  let closed = List.filter (fun s -> s.closed) (spans t) in
  let lanes, order = lane_table closed in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ','
  in
  List.iter
    (fun node ->
      sep ();
      let name = if node = "" then "engine" else node in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (Hashtbl.find lanes node) (json_escape name)))
    order;
  List.iter
    (fun s ->
      sep ();
      let ts = Time.to_us s.queued_at in
      let dur = Time.to_us s.fired_at - ts in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"label\":\"%s\",\"trace\":%d}}"
           (json_escape s.category) (json_escape s.category) ts dur
           (Hashtbl.find lanes s.node) s.id s.parent (json_escape s.label)
           t.trace_id))
    closed;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      if s.closed then
        Buffer.add_string buf
          (Printf.sprintf
             "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"category\":\"%s\",\"node\":\"%s\",\"label\":\"%s\",\"queued_us\":%d,\"fired_us\":%d}\n"
             t.trace_id s.id s.parent (json_escape s.category)
             (json_escape s.node) (json_escape s.label)
             (Time.to_us s.queued_at) (Time.to_us s.fired_at)))
    (spans t);
  Buffer.contents buf

let render_line s =
  let wait = Time.to_us s.fired_at - Time.to_us s.queued_at in
  Printf.sprintf "%012d #%d<-%d %s%s%s (wait %dus)" (Time.to_us s.fired_at)
    s.id s.parent s.category
    (if s.node = "" then "" else " " ^ s.node)
    (if s.label = "" then "" else " [" ^ s.label ^ "]")
    wait

let flight_lines t =
  List.filter_map (fun s -> if s.closed then Some (render_line s) else None) (spans t)
