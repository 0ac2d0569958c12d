(* Autonomous System numbers. *)

type t = int

let of_int n =
  if n <= 0 || n > 0xFFFF_FFFF then invalid_arg (Fmt.str "Asn.of_int: %d out of range" n);
  n

let to_int t = t

let compare = Int.compare

let equal = Int.equal

let pp ppf t = Fmt.pf ppf "AS%d" t

let to_string t = "AS" ^ string_of_int t

let int_to_string = to_string

let of_string s =
  let s = String.trim s in
  let num =
    if String.length s > 2 && String.(equal (uppercase_ascii (sub s 0 2)) "AS") then
      String.sub s 2 (String.length s - 2)
    else s
  in
  match int_of_string_opt num with
  | Some n when n > 0 && n <= 0xFFFF_FFFF -> Some n
  | Some _ | None -> None

module Set = Set.Make (Int)
module Map = Map.Make (Int)
