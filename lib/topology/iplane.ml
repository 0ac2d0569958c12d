(* iPlane Inter-PoP links dataset support.

   The iPlane "inter-PoP links" files (iplane.cs.washington.edu) list one
   link per line as two PoP identifiers and an optional measured latency:

     <pop1> <pop2> [latency_us]

   where a PoP id encodes an AS.  We emulate one router per AS, so PoPs
   collapse onto their AS: multiple PoP pairs between the same two ASes
   merge into one inter-AS link with the minimum latency.  Since no iPlane
   snapshot ships in the sealed environment, [generate] synthesizes PoP
   meshes with geographic latencies, exercising the same loader path. *)

type parse_error = { line : int; content : string; reason : string }

let pp_parse_error ppf e = Fmt.pf ppf "line %d (%S): %s" e.line e.content e.reason

(* PoP ids map to ASes as [asn = base + pop / pops_per_as]: iPlane ids are
   opaque; this fixed scheme keeps the loader deterministic and testable. *)
let pop_to_asn ?(pops_per_as = 4) pop_id =
  Net.Asn.of_int (Artificial.base_asn + (pop_id / pops_per_as))

let parse_line ?pops_per_as lineno line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then Ok None
  else
    let fields =
      String.split_on_char ' ' trimmed |> List.filter (fun s -> s <> "")
    in
    match fields with
    | [ a; b ] | [ a; b; _ ] -> (
      let latency =
        match fields with
        | [ _; _; l ] -> int_of_string_opt l
        | _ -> Some 5_000
      in
      match (int_of_string_opt a, int_of_string_opt b, latency) with
      | Some a, Some b, Some lat when a >= 0 && b >= 0 && lat >= 0 ->
        Ok (Some (pop_to_asn ?pops_per_as a, pop_to_asn ?pops_per_as b, lat))
      | _ -> Error { line = lineno; content = trimmed; reason = "bad PoP id or latency" })
    | _ -> Error { line = lineno; content = trimmed; reason = "expected: pop1 pop2 [latency_us]" }

let parse_string ?(title = "iplane") ?pops_per_as text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line ?pops_per_as lineno line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some l) -> go (lineno + 1) (l :: acc) rest
      | Error e -> Error e)
  in
  match go 1 [] lines with
  | Error e -> Error e
  | Ok raw ->
    (* Merge PoP-level links into AS-level links, keeping min latency. *)
    let best = Hashtbl.create 64 in
    List.iter
      (fun (a, b, lat) ->
        if not (Net.Asn.equal a b) then begin
          let key = if Net.Asn.compare a b <= 0 then (a, b) else (b, a) in
          match Hashtbl.find_opt best key with
          | Some prev when prev <= lat -> ()
          | Some _ | None -> Hashtbl.replace best key lat
        end)
      raw;
    let links =
      Hashtbl.fold (fun (a, b) lat acc -> Spec.link ~rel:Spec.Open ~delay_us:lat a b :: acc)
        best []
      |> List.sort (fun (l1 : Spec.link_spec) l2 ->
             let c = Net.Asn.compare l1.a l2.a in
             if c <> 0 then c else Net.Asn.compare l1.b l2.b)
    in
    let asns = Hashtbl.create 64 in
    List.iter
      (fun (l : Spec.link_spec) ->
        Hashtbl.replace asns l.a ();
        Hashtbl.replace asns l.b ())
      links;
    let nodes =
      Hashtbl.fold (fun asn () acc -> asn :: acc) asns []
      |> List.sort Net.Asn.compare
      |> List.map (fun asn -> Spec.node asn)
    in
    Ok (Spec.make ~title ~nodes ~links)

let parse_file path = parse_string ~title:(Filename.basename path) (Text_file.read path)

(* Synthesize an iPlane-like inter-PoP file: [ases] ASes with
   [pops_per_as] PoPs each placed on the unit square; PoPs connect within
   their AS (backbone ring) and to geographically close foreign PoPs.
   Latency is distance-proportional (~1 ms per 0.05 units). *)
let generate_text ?(ases = 12) ?(pops_per_as = 4) rng =
  if ases < 2 || pops_per_as < 1 then invalid_arg "Iplane.generate_text";
  let total = ases * pops_per_as in
  let xs = Array.init total (fun _ -> Engine.Rng.float rng 1.0) in
  let ys = Array.init total (fun _ -> Engine.Rng.float rng 1.0) in
  let dist i j = sqrt (((xs.(i) -. xs.(j)) ** 2.0) +. ((ys.(i) -. ys.(j)) ** 2.0)) in
  let latency i j = int_of_float (dist i j /. 0.05 *. 1000.0) + 200 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# synthetic iPlane inter-PoP links: pop1 pop2 latency_us\n";
  let add i j = Buffer.add_string buf (Fmt.str "%d %d %d\n" i j (latency i j)) in
  (* Intra-AS PoP rings keep each AS's PoPs connected. *)
  for a = 0 to ases - 1 do
    let base = a * pops_per_as in
    for k = 0 to pops_per_as - 2 do
      add (base + k) (base + k + 1)
    done
  done;
  (* Inter-AS: each PoP links to its 2 nearest foreign PoPs. *)
  for i = 0 to total - 1 do
    let foreign =
      List.init total Fun.id
      |> List.filter (fun j -> j / pops_per_as <> i / pops_per_as)
      |> List.sort (fun j k -> Float.compare (dist i j) (dist i k))
    in
    List.iteri (fun rank j -> if rank < 2 then add i j) foreign
  done;
  Buffer.contents buf

let generate ?ases ?pops_per_as rng =
  let pops_per_as_v = Option.value pops_per_as ~default:4 in
  match
    parse_string ~title:"iplane-synth" ~pops_per_as:pops_per_as_v
      (generate_text ?ases ?pops_per_as rng)
  with
  | Ok spec -> spec
  | Error e -> failwith (Fmt.str "Iplane.generate: self-parse failed: %a" pp_parse_error e)
