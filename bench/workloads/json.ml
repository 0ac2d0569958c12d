(* Minimal JSON values: enough to print the result line, write a set of
   runs, and read sets and BENCHMARK.json back, without a dependency. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

(* Shortest decimal that reads back as the same float: results carry
   every measured digit. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 15

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num v -> Buffer.add_string b (if Float.is_finite v then float_repr v else "null")
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        emit b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        emit b (Str k);
        Buffer.add_string b ": ";
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 1024 in
  emit b t;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let number () =
    let start = !pos in
    while !pos < n && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false) do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' when !pos + 4 <= n -> (
          match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code when code < 128 ->
            Buffer.add_char b (Char.chr code);
            pos := !pos + 4
          | _ -> fail "unsupported \\u escape")
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> Str (string_lit ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> number ()
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if !pos < n && s.[!pos] = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let v = item () in
        skip_ws ();
        if !pos < n && s.[!pos] = ',' then begin
          incr pos;
          go (v :: acc)
        end
        else begin
          expect close;
          List.rev (v :: acc)
        end
      in
      go []
  and arr () =
    expect '[';
    Arr (seq ']' value)
  and obj () =
    expect '{';
    Obj
      (seq '}' (fun () ->
           skip_ws ();
           let k = string_lit () in
           skip_ws ();
           expect ':';
           (k, value ())))
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num v -> Some v | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr l -> l | _ -> []
