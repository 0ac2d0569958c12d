(* CAIDA AS-relationship dataset support.

   The framework builds topologies from the CAIDA serial-1 files
   (http://www.caida.org/data/as-relationships/), whose line format is

     <provider-as>|<customer-as>|-1        (provider-to-customer)
     <peer-as>|<peer-as>|0                 (peer-to-peer)
     <sibling-as>|<sibling-as>|2           (siblings, older serials)

   with '#' comment lines.  The sealed environment has no CAIDA snapshot,
   so [generate] also synthesizes an Internet-like relationship graph with
   the same structure: a clique of tier-1s, mid-tier transit ASes
   multi-homed to providers and peering laterally, and stub ASes — the
   degree/customer-cone shape CAIDA data exhibits. *)

type parse_error = { line : int; content : string; reason : string }

let pp_parse_error ppf e = Fmt.pf ppf "line %d (%S): %s" e.line e.content e.reason

let parse_line lineno line =
  let trimmed = String.trim line in
  if trimmed = "" || String.length trimmed > 0 && trimmed.[0] = '#' then Ok None
  else
    match String.split_on_char '|' trimmed with
    | a :: b :: rel :: _ -> (
      match (Net.Asn.of_string a, Net.Asn.of_string b, String.trim rel) with
      | Some a, Some b, "-1" ->
        (* a provider, b customer: the link's C2p orientation is b -> a. *)
        Ok (Some (Spec.link ~rel:Spec.C2p b a))
      | Some a, Some b, "0" -> Ok (Some (Spec.link ~rel:Spec.P2p a b))
      | Some a, Some b, "2" -> Ok (Some (Spec.link ~rel:Spec.S2s a b))
      | Some _, Some _, r ->
        Error { line = lineno; content = trimmed; reason = Fmt.str "unknown relationship %S" r }
      | _ -> Error { line = lineno; content = trimmed; reason = "bad AS number" })
    | _ -> Error { line = lineno; content = trimmed; reason = "expected as1|as2|rel" }

let parse_string ?(title = "caida") text =
  let lines = String.split_on_char '\n' text in
  (* Malformed structure is rejected, not repaired: a self-loop or a
     repeated AS pair (even with the same relationship) means the file is
     not a function from unordered pairs to relationships, and silently
     merging has historically hidden generator bugs. *)
  let seen = Hashtbl.create 64 in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line lineno line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some (l : Spec.link_spec)) ->
        if Net.Asn.equal l.a l.b then
          Error
            {
              line = lineno;
              content = String.trim line;
              reason = Fmt.str "self-loop on AS%a" Net.Asn.pp l.a;
            }
        else begin
          let key = if Net.Asn.compare l.a l.b <= 0 then (l.a, l.b) else (l.b, l.a) in
          match Hashtbl.find_opt seen key with
          | Some first_line ->
            Error
              {
                line = lineno;
                content = String.trim line;
                reason =
                  Fmt.str "duplicate AS pair %a|%a (first related at line %d)" Net.Asn.pp l.a
                    Net.Asn.pp l.b first_line;
              }
          | None ->
            Hashtbl.replace seen key lineno;
            go (lineno + 1) (l :: acc) rest
        end
      | Error e -> Error e)
  in
  match go 1 [] lines with
  | Error e -> Error e
  | Ok links ->
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

let render spec =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# CAIDA AS-relationship serial-1 format\n";
  List.iter
    (fun (l : Spec.link_spec) ->
      match l.rel with
      | Spec.C2p ->
        (* provider|customer|-1: provider is l.b *)
        Buffer.add_string
          buf
          (Fmt.str "%d|%d|-1\n" (Net.Asn.to_int l.b) (Net.Asn.to_int l.a))
      | Spec.P2p -> Buffer.add_string buf (Fmt.str "%d|%d|0\n" (Net.Asn.to_int l.a) (Net.Asn.to_int l.b))
      | Spec.S2s -> Buffer.add_string buf (Fmt.str "%d|%d|2\n" (Net.Asn.to_int l.a) (Net.Asn.to_int l.b))
      | Spec.Open ->
        Buffer.add_string buf (Fmt.str "%d|%d|0\n" (Net.Asn.to_int l.a) (Net.Asn.to_int l.b)))
    (Spec.links spec);
  Buffer.contents buf

(* Synthetic Internet-like relationship graph.

   [tier1] ASes form a peering clique; each of [tier2] transit ASes buys
   from 2 random tier-1s and peers with ~20% of other tier-2s; each stub
   buys from 1-2 transit ASes (dual-homing probability [multihome]). *)
let generate ?(tier1 = 4) ?(tier2 = 12) ?(stubs = 34) ?(multihome = 0.4) rng =
  if tier1 < 1 || tier2 < 1 || stubs < 0 then invalid_arg "Caida.generate";
  let total = tier1 + tier2 + stubs in
  let asn = Artificial.asn in
  let links = ref [] in
  let add l = links := l :: !links in
  (* Tier-1 clique: settlement-free peers. *)
  for i = 0 to tier1 - 1 do
    for j = i + 1 to tier1 - 1 do
      add (Spec.link ~rel:Spec.P2p (asn i) (asn j))
    done
  done;
  (* Tier-2: customers of two distinct tier-1s, lateral peering. *)
  for i = tier1 to tier1 + tier2 - 1 do
    let p1 = Engine.Rng.int rng tier1 in
    let p2 = if tier1 = 1 then p1 else (p1 + 1 + Engine.Rng.int rng (tier1 - 1)) mod tier1 in
    add (Spec.link ~rel:Spec.C2p (asn i) (asn p1));
    if p2 <> p1 then add (Spec.link ~rel:Spec.C2p (asn i) (asn p2))
  done;
  for i = tier1 to tier1 + tier2 - 1 do
    for j = i + 1 to tier1 + tier2 - 1 do
      if Engine.Rng.chance rng 0.2 then add (Spec.link ~rel:Spec.P2p (asn i) (asn j))
    done
  done;
  (* Stubs: customers of one or two tier-2s. *)
  for i = tier1 + tier2 to total - 1 do
    let t1 = tier1 + Engine.Rng.int rng tier2 in
    add (Spec.link ~rel:Spec.C2p (asn i) (asn t1));
    if Engine.Rng.chance rng multihome && tier2 > 1 then begin
      let t2 = tier1 + ((t1 - tier1 + 1 + Engine.Rng.int rng (tier2 - 1)) mod tier2) in
      if t2 <> t1 then add (Spec.link ~rel:Spec.C2p (asn i) (asn t2))
    end
  done;
  Spec.make
    ~title:(Fmt.str "caida-synth-%d" total)
    ~nodes:(List.init total (fun i -> Spec.node (asn i)))
    ~links:(List.rev !links)

let stub_asns ~tier1 ~tier2 ~stubs =
  List.init stubs (fun i -> Artificial.asn (tier1 + tier2 + i))
