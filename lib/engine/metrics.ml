(* Label-aware metrics registry.

   One registry per simulation (owned by Sim), so parallel experiments
   never share counters and identical seeds yield identical snapshots.
   Everything is deterministic: label sets are canonicalized (sorted by
   key) at registration, snapshots are sorted by (name, labels), and no
   wall-clock value ever enters the registry — wall-clock profiling lives
   in Sim's separate profile table precisely so that exports stay
   byte-reproducible across runs of the same seed.

   Registration is idempotent: asking for the same (name, labels) series
   again returns the existing handle, so hot paths keep a handle and cold
   paths may just re-look it up. *)

type labels = (string * string) list

let canon_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec dedup = function
    | (k, _) :: ((k', _) :: _ as rest) when String.equal k k' -> dedup rest
    | kv :: rest -> kv :: dedup rest
    | [] -> []
  in
  (* last writer wins on duplicate keys, matching Hashtbl.replace intuition *)
  dedup sorted

let render_labels = function
  | [] -> ""
  | labels ->
    Fmt.str "{%s}"
      (String.concat "," (List.map (fun (k, v) -> Fmt.str "%s=%S" k v) labels))

let series_key name labels = name ^ render_labels labels

(* --- Series ------------------------------------------------------------- *)

module Counter = struct
  type t = { mutable v : int }

  let inc t = t.v <- t.v + 1

  let add t by =
    if by < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    t.v <- t.v + by

  let value t = t.v
end

module Gauge = struct
  type t = { mutable v : float }

  let set t v = t.v <- v

  let add t by = t.v <- t.v +. by

  let value t = t.v
end

type series = S_counter of Counter.t | S_gauge of Gauge.t

type entry = { name : string; help : string; labels : labels; series : series }

type t = {
  entries : (string, entry) Hashtbl.t; (* keyed by series_key *)
  collectors : (unit -> unit) Queue.t;
}

let create () = { entries = Hashtbl.create 64; collectors = Queue.create () }

let on_collect t f = Queue.add f t.collectors

let kind_name = function S_counter _ -> "counter" | S_gauge _ -> "gauge"

let register t ~name ~help ~labels make =
  let labels = canon_labels labels in
  let key = series_key name labels in
  match Hashtbl.find_opt t.entries key with
  | Some entry -> entry
  | None ->
    let entry = { name; help; labels; series = make () } in
    Hashtbl.replace t.entries key entry;
    entry

let counter t ?(help = "") ?(labels = []) name =
  match register t ~name ~help ~labels (fun () -> S_counter { Counter.v = 0 }) with
  | { series = S_counter c; _ } -> c
  | entry ->
    invalid_arg (Fmt.str "Metrics.counter: %s already registered as a %s" name
                   (kind_name entry.series))

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~name ~help ~labels (fun () -> S_gauge { Gauge.v = 0.0 }) with
  | { series = S_gauge g; _ } -> g
  | entry ->
    invalid_arg (Fmt.str "Metrics.gauge: %s already registered as a %s" name
                   (kind_name entry.series))

(* --- Snapshots ----------------------------------------------------------- *)

type value = Counter_v of int | Gauge_v of float

type sample = { name : string; help : string; labels : labels; value : value }

type snapshot = { at : Time.t; samples : sample list }

let freeze entry =
  let value =
    match entry.series with
    | S_counter c -> Counter_v c.Counter.v
    | S_gauge g -> Gauge_v g.Gauge.v
  in
  { name = entry.name; help = entry.help; labels = entry.labels; value }

let snapshot t ~at =
  Queue.iter (fun f -> f ()) t.collectors;
  let keyed = Hashtbl.fold (fun key entry acc -> (key, entry) :: acc) t.entries [] in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) keyed in
  { at; samples = List.map (fun (_, e) -> freeze e) sorted }

let find_sample snapshot ?(labels = []) name =
  let labels = canon_labels labels in
  List.find_opt (fun s -> String.equal s.name name && s.labels = labels) snapshot.samples

let sample_value = function Counter_v v -> float_of_int v | Gauge_v v -> v

let value snapshot ?labels name = Option.map (fun s -> sample_value s.value) (find_sample snapshot ?labels name)

(* --- Rendering ----------------------------------------------------------- *)

(* Deterministic float rendering: integers without a fractional part, the
   rest with enough digits to round-trip. *)
let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Fmt.str "%.0f" x
  else Fmt.str "%.9g" x

let prom_line buf name labels v =
  Buffer.add_string buf name;
  Buffer.add_string buf (render_labels labels);
  Buffer.add_char buf ' ';
  Buffer.add_string buf v;
  Buffer.add_char buf '\n'

let to_prometheus snapshot =
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun s ->
      if not (String.equal s.name !last_family) then begin
        last_family := s.name;
        if s.help <> "" then Buffer.add_string buf (Fmt.str "# HELP %s %s\n" s.name s.help);
        Buffer.add_string
          buf
          (Fmt.str "# TYPE %s %s\n" s.name
             (match s.value with Counter_v _ -> "counter" | Gauge_v _ -> "gauge"))
      end;
      match s.value with
      | Counter_v v -> prom_line buf s.name s.labels (string_of_int v)
      | Gauge_v v -> prom_line buf s.name s.labels (fmt_float v))
    snapshot.samples;
  Buffer.contents buf

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
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_labels labels =
  Fmt.str "{%s}"
    (String.concat ","
       (List.map (fun (k, v) -> Fmt.str "\"%s\":\"%s\"" (json_escape k) (json_escape v)) labels))

(* One JSON object per sample, one line each: a JSONL time-series row. *)
let to_jsonl snapshot =
  let buf = Buffer.create 1024 in
  let t_us = Time.to_us snapshot.at in
  List.iter
    (fun s ->
      let common =
        Fmt.str "{\"t_us\":%d,\"metric\":\"%s\",\"labels\":%s" t_us (json_escape s.name)
          (json_labels s.labels)
      in
      let rest =
        match s.value with
        | Counter_v v -> Fmt.str ",\"type\":\"counter\",\"value\":%d}" v
        | Gauge_v v -> Fmt.str ",\"type\":\"gauge\",\"value\":%s}" (fmt_float v)
      in
      Buffer.add_string buf common;
      Buffer.add_string buf rest;
      Buffer.add_char buf '\n')
    snapshot.samples;
  Buffer.contents buf

let csv_header = "t_us,metric,labels,type,value\n"

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ?(header = true) snapshot =
  let buf = Buffer.create 1024 in
  if header then Buffer.add_string buf csv_header;
  let t_us = Time.to_us snapshot.at in
  let labels_str labels =
    csv_escape (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
  in
  let row metric labels kind v =
    Buffer.add_string buf (Fmt.str "%d,%s,%s,%s,%s\n" t_us metric (labels_str labels) kind v)
  in
  List.iter
    (fun s ->
      match s.value with
      | Counter_v v -> row s.name s.labels "counter" (string_of_int v)
      | Gauge_v v -> row s.name s.labels "gauge" (fmt_float v))
    snapshot.samples;
  Buffer.contents buf

(* --- Prometheus text parsing ---------------------------------------------

   Enough of the exposition format to round-trip our own exports and to
   validate files in the CLI smoke check: comments, bare samples, and
   label sets with escaped string values. *)

type parsed_sample = { p_name : string; p_labels : labels; p_value : float }

exception Parse_error of string

let parse_prometheus text =
  let parse_line lineno line =
    let fail msg = raise (Parse_error (Fmt.str "line %d: %s" lineno msg)) in
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else begin
      let len = String.length line in
      let rec name_end i =
        if i >= len then i
        else
          match line.[i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> name_end (i + 1)
          | _ -> i
      in
      let ne = name_end 0 in
      if ne = 0 then fail "expected metric name";
      let p_name = String.sub line 0 ne in
      let labels = ref [] in
      let i = ref ne in
      if !i < len && line.[!i] = '{' then begin
        incr i;
        let rec parse_label () =
          while !i < len && (line.[!i] = ' ' || line.[!i] = ',') do incr i done;
          if !i >= len then fail "unterminated label set"
          else if line.[!i] = '}' then incr i
          else begin
            let ks = !i in
            while !i < len && line.[!i] <> '=' do incr i done;
            if !i >= len then fail "expected '=' in label";
            let key = String.trim (String.sub line ks (!i - ks)) in
            incr i;
            if !i >= len || line.[!i] <> '"' then fail "expected quoted label value";
            incr i;
            let buf = Buffer.create 8 in
            let rec scan () =
              if !i >= len then fail "unterminated label value"
              else
                match line.[!i] with
                | '"' -> incr i
                | '\\' ->
                  if !i + 1 >= len then fail "dangling escape";
                  (match line.[!i + 1] with
                  | 'n' -> Buffer.add_char buf '\n'
                  | c -> Buffer.add_char buf c);
                  i := !i + 2;
                  scan ()
                | c ->
                  Buffer.add_char buf c;
                  incr i;
                  scan ()
            in
            scan ();
            labels := (key, Buffer.contents buf) :: !labels;
            parse_label ()
          end
        in
        parse_label ()
      end;
      let rest = String.trim (String.sub line !i (len - !i)) in
      let value_str = match String.split_on_char ' ' rest with v :: _ -> v | [] -> "" in
      let p_value =
        match value_str with
        | "+Inf" -> infinity
        | "-Inf" -> neg_infinity
        | "NaN" -> nan
        | v -> (
          match float_of_string_opt v with
          | Some f -> f
          | None -> fail (Fmt.str "bad sample value %S" v))
      in
      Some { p_name; p_labels = canon_labels (List.rev !labels); p_value }
    end
  in
  try
    Ok
      (List.concat
         (List.mapi
            (fun i line -> Option.to_list (parse_line (i + 1) line))
            (String.split_on_char '\n' text)))
  with Parse_error msg -> Error msg
