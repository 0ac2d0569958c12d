(* Deterministic causal span tracing.  See causal.mli for the contract.

   The store is a set of parallel slot arrays; span id [i] lives in slot
   [i land mask].  The arrays start at 256 slots and double as spans
   arrive: a [Ring n] store stops at the power of two >= n and then
   wraps around (a span is retained iff its id is among the newest
   [window] = n ids), a [Full] store keeps doubling.  A short run thus
   holds only the slots it used.  Ids are dense sequence numbers, so no
   RNG draw happens per span — the only randomness is the run's trace
   id, minted once at [create] from a dedicated stream so the sim root
   RNG's draw order is untouched.

   The record path ([on_schedule], [on_execute], [annotate], [mark],
   [with_span]) writes only immediates and already-built strings into
   the slots, so once a ring has reached its size it allocates nothing.
   Every pointer store costs a write barrier, so a slot's [kind] says
   which of [nodes], [labels], [renders] and [args] were written for it:
   a plain event writes none of them, and a slot's stale entries are
   never read.  [span] records and rendered labels are built only by the
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

(* Slot kinds. *)
let event = '\000' (* no node, no label *)

let string_marker = '\001' (* node, labels *)

let render_marker = '\002' (* node, renders applied to args *)

type t = {
  mode : mode;
  trace_id : int;
  window : int; (* spans retained: n for [Ring n], max_int for Full *)
  max_slots : int; (* the power of two >= n for [Ring n], max_int for Full *)
  mutable mask : int; (* slots - 1: the slot of id i is i land mask *)
  mutable kinds : Bytes.t;
  mutable parents : int array;
  mutable queued : int array; (* us *)
  mutable fired : int array; (* us; -1 while the span is open *)
  mutable categories : string array;
  mutable nodes : string array;
  mutable labels : string array;
  mutable renders : (int -> string) array;
  mutable args : int array;
  mutable next_id : int; (* = total spans ever opened *)
  mutable current : int; (* span of the event now executing, -1 at top *)
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
    kinds = Bytes.make n event;
    parents = Array.make n (-1);
    queued = Array.make n 0;
    fired = Array.make n (-1);
    categories = Array.make n "";
    nodes = Array.make n "";
    labels = Array.make n "";
    renders = Array.make n no_render;
    args = Array.make n 0;
    next_id = 0;
    current = -1;
  }

let mode t = t.mode

let enabled t = match t.mode with Disabled -> false | Ring _ | Full -> true

let trace_id t = t.trace_id

let total t = t.next_id

let stored t = Stdlib.min t.next_id t.window

let retained t id = id >= 0 && id < t.next_id && id >= t.next_id - t.window

(* Readers: the only place a [span] is built or a label rendered. *)
let span_of t id =
  let s = id land t.mask in
  let kind = Bytes.get t.kinds s in
  let queued = t.queued.(s) and fired = t.fired.(s) in
  {
    id;
    parent = t.parents.(s);
    category = t.categories.(s);
    node = (if kind = event then "" else t.nodes.(s));
    label =
      (if kind = string_marker then t.labels.(s)
       else if kind = render_marker then t.renders.(s) t.args.(s)
       else "");
    queued_at = Time.of_us queued;
    fired_at = Time.of_us (if fired < 0 then queued else fired);
    closed = fired >= 0;
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

let grow t =
  let n = t.mask + 1 in
  let grown a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.kinds <- Bytes.extend t.kinds 0 n;
  t.parents <- grown t.parents (-1);
  t.queued <- grown t.queued 0;
  t.fired <- grown t.fired (-1);
  t.categories <- grown t.categories "";
  t.nodes <- grown t.nodes "";
  t.labels <- grown t.labels "";
  t.renders <- grown t.renders no_render;
  t.args <- grown t.args 0;
  t.mask <- (2 * n) - 1

(* Fill the fields every span has and return its slot; the caller writes
   the fields its [kind] names.  Callers have checked the store is
   enabled. *)
let open_slot t ~kind ~category ~queued ~fired =
  if t.next_id = t.mask + 1 && t.next_id < t.max_slots then grow t;
  let s = t.next_id land t.mask in
  Bytes.set t.kinds s kind;
  t.parents.(s) <- t.current;
  t.queued.(s) <- queued;
  t.fired.(s) <- fired;
  t.categories.(s) <- category;
  t.next_id <- t.next_id + 1;
  s

let on_schedule t ~category ~queued_at =
  match t.mode with
  | Disabled -> -1
  | Ring _ | Full ->
    ignore (open_slot t ~kind:event ~category ~queued:(Time.to_us queued_at) ~fired:(-1));
    t.next_id - 1

let on_execute t id ~fired_at =
  if id >= 0 then begin
    if retained t id then t.fired.(id land t.mask) <- Time.to_us fired_at;
    (* Even an evicted span remains the causal parent of whatever its
       action schedules: children record the id regardless. *)
    t.current <- id
  end

let current t = t.current

let clear_current t = t.current <- -1

let string_marker_span t ~category ~node ~label ~at =
  let us = Time.to_us at in
  let s = open_slot t ~kind:string_marker ~category ~queued:us ~fired:us in
  t.nodes.(s) <- node;
  t.labels.(s) <- label

let annotate t ~category ?(node = "") ?(label = "") ~at () =
  match t.mode with
  | Disabled -> ()
  | Ring _ | Full -> string_marker_span t ~category ~node ~label ~at

let mark t ~category ~node ~render arg ~at =
  match t.mode with
  | Disabled -> ()
  | Ring _ | Full ->
    let us = Time.to_us at in
    let s = open_slot t ~kind:render_marker ~category ~queued:us ~fired:us in
    t.nodes.(s) <- node;
    t.renders.(s) <- render;
    t.args.(s) <- arg

let with_span t ~category ?(node = "") ?(label = "") ~at f =
  match t.mode with
  | Disabled -> f ()
  | Ring _ | Full -> (
    string_marker_span t ~category ~node ~label ~at;
    let saved = t.current in
    t.current <- t.next_id - 1;
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
    else if not (is_dataplane_write t.categories.(i land t.mask)) then scan (i - 1)
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
