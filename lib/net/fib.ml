(* Longest-prefix-match forwarding table, generic in the entry type: SDN
   switches store flow rules (a legacy router's forwarding is derived
   from its Loc-RIB and needs no table).

   Entries sit in an [Ipv4.Prefix_table] (open addressing keyed by the
   packed prefix, at most three quarters full), so a table costs a few
   words per entry where a bit trie spent a node per prefix bit.  [lens]
   counts the entries of each prefix length, so a longest-prefix match
   probes only the lengths in use, longest first; it is made by the first
   insert, so a table that never holds an entry costs no count array.
   Packed order is [compare_prefix] order: ordered reads walk the slots
   sorted by packed key, cached until the key set changes (only then do
   slots move). *)

module Tbl = Ipv4.Prefix_table

type 'a t = {
  tbl : 'a Tbl.t;
  mutable lens : int array; (* entries per prefix length, 0..32; [||] before any insert *)
  mutable order : int array; (* the slots in ascending prefix order, when [ordered] *)
  mutable ordered : bool;
}

let create () = { tbl = Tbl.create (); lens = [||]; order = [||]; ordered = true }

let size t = Tbl.size t.tbl

let count t key delta =
  if Array.length t.lens = 0 then t.lens <- Array.make 33 0;
  t.lens.(key land 63) <- t.lens.(key land 63) + delta;
  t.ordered <- false

let insert t prefix v =
  let key = Ipv4.prefix_to_packed prefix in
  match Tbl.slot t.tbl key with
  | -1 ->
    ignore (Tbl.add t.tbl key v);
    count t key 1
  | i -> Tbl.set_value t.tbl i v

let find t prefix =
  match Tbl.slot t.tbl (Ipv4.prefix_to_packed prefix) with
  | -1 -> None
  | i -> Some (Tbl.value t.tbl i)

let remove t prefix =
  let key = Ipv4.prefix_to_packed prefix in
  match Tbl.slot t.tbl key with
  | -1 -> ()
  | i ->
    Tbl.remove_slot t.tbl i;
    count t key (-1)

(* The slot of the longest entry covering address [bits], or -1. *)
let rec longest t bits len =
  if len < 0 then -1
  else if t.lens.(len) = 0 then longest t bits (len - 1)
  else
    match Tbl.slot t.tbl (((bits land Ipv4.mask_bits len) lsl 6) lor len) with
    | -1 -> longest t bits (len - 1)
    | i -> i

let longest_of t addr =
  if Array.length t.lens = 0 then -1 else longest t (Ipv4.addr_to_bits addr) 32

let lookup t addr =
  match longest_of t addr with
  | -1 -> None
  | i -> Some (Ipv4.prefix_of_packed (Tbl.packed_at t.tbl i), Tbl.value t.tbl i)

let lookup_value t addr =
  match longest_of t addr with -1 -> None | i -> Some (Tbl.value t.tbl i)

let sorted t =
  if not t.ordered then begin
    t.order <- Tbl.sorted_slots t.tbl;
    t.ordered <- true
  end;
  t.order

let iter t f =
  let order = sorted t in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    f (Tbl.packed_at t.tbl i) (Tbl.value t.tbl i)
  done

let entries t =
  Array.fold_right
    (fun i acc -> (Ipv4.prefix_of_packed (Tbl.packed_at t.tbl i), Tbl.value t.tbl i) :: acc)
    (sorted t) []

let clear t =
  Tbl.clear t.tbl;
  t.lens <- [||];
  t.order <- [||];
  t.ordered <- true
