(* Longest-prefix-match forwarding table, generic in the entry type: legacy
   routers store next-hop AS decisions, SDN switches store flow rules.

   Entries sit in an open-addressed, linearly probed table keyed by
   [Ipv4.prefix_to_packed] (an immediate int), at most half full, so a
   table costs a few words per entry where a bit trie spent a node per
   prefix bit.  [lens] counts the entries of each prefix length, so a
   longest-prefix match probes only the lengths in use, longest first.
   Packed order is [compare_prefix] order: ordered reads walk the sorted
   packed keys, cached until the key set changes. *)

let empty = -1 (* no packed prefix is negative *)

type 'a t = {
  mutable keys : int array; (* packed prefixes, or [empty]; power-of-two length *)
  mutable vals : 'a array; (* [||] until the first insert, then as long as [keys] *)
  mutable size : int;
  lens : int array; (* entries per prefix length, 0..32 *)
  mutable order : int array; (* the keys in ascending order, when [ordered] *)
  mutable ordered : bool;
}

let initial = 8

let create () =
  {
    keys = Array.make initial empty;
    vals = [||];
    size = 0;
    lens = Array.make 33 0;
    order = [||];
    ordered = true;
  }

let size t = t.size

(* The slot holding [key], or the empty slot that ends its probe run. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key || k = empty then i else probe keys mask key ((i + 1) land mask)

let slot t key =
  let mask = Array.length t.keys - 1 in
  probe t.keys mask key (Ipv4.hash_packed key land mask)

let resize t capacity =
  let keys = t.keys and vals = t.vals in
  t.keys <- Array.make capacity empty;
  t.vals <- Array.make capacity vals.(0);
  Array.iteri
    (fun j key ->
      if key <> empty then begin
        let i = slot t key in
        t.keys.(i) <- key;
        t.vals.(i) <- vals.(j)
      end)
    keys

let count t key delta =
  t.lens.(key land 63) <- t.lens.(key land 63) + delta;
  t.size <- t.size + delta;
  t.ordered <- false

let insert t prefix v =
  if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) v;
  let key = Ipv4.prefix_to_packed prefix in
  let i = slot t key in
  t.vals.(i) <- v;
  if t.keys.(i) <> key then begin
    t.keys.(i) <- key;
    count t key 1;
    if 2 * t.size > Array.length t.keys then resize t (2 * Array.length t.keys)
  end

let find t prefix =
  let key = Ipv4.prefix_to_packed prefix in
  let i = slot t key in
  if t.keys.(i) = key then Some t.vals.(i) else None

(* Backward-shift deletion: each later member of the probe run moves into
   the hole unless its home slot lies cyclically in (hole, j], so runs stay
   unbroken without tombstones. *)
let remove t prefix =
  let key = Ipv4.prefix_to_packed prefix in
  let i = slot t key in
  if t.keys.(i) = key then begin
    count t key (-1);
    let mask = Array.length t.keys - 1 in
    let rec shift hole j =
      let k = t.keys.(j) in
      if k = empty then t.keys.(hole) <- empty
      else if (j - Ipv4.hash_packed k) land mask >= (j - hole) land mask then begin
        t.keys.(hole) <- k;
        t.vals.(hole) <- t.vals.(j);
        shift j ((j + 1) land mask)
      end
      else shift hole ((j + 1) land mask)
    in
    shift i ((i + 1) land mask)
  end

(* The slot of the longest entry covering address [bits], or -1. *)
let rec longest t bits len =
  if len < 0 then -1
  else if t.lens.(len) = 0 then longest t bits (len - 1)
  else
    let key = ((bits land Ipv4.mask_bits len) lsl 6) lor len in
    let i = slot t key in
    if t.keys.(i) = key then i else longest t bits (len - 1)

let lookup t addr =
  match longest t (Ipv4.addr_to_bits addr) 32 with
  | -1 -> None
  | i -> Some (Ipv4.prefix_of_packed t.keys.(i), t.vals.(i))

let lookup_value t addr =
  match longest t (Ipv4.addr_to_bits addr) 32 with -1 -> None | i -> Some t.vals.(i)

let sorted t =
  if not t.ordered then begin
    let order = Array.make t.size 0 and j = ref 0 in
    Array.iter
      (fun key ->
        if key <> empty then begin
          order.(!j) <- key;
          incr j
        end)
      t.keys;
    Array.sort Int.compare order;
    t.order <- order;
    t.ordered <- true
  end;
  t.order

let iter t f = Array.iter (fun key -> f key t.vals.(slot t key)) (sorted t)

let entries t =
  Array.fold_right
    (fun key acc -> (Ipv4.prefix_of_packed key, t.vals.(slot t key)) :: acc)
    (sorted t) []

let clear t =
  t.keys <- Array.make initial empty;
  t.vals <- [||];
  t.size <- 0;
  Array.fill t.lens 0 33 0;
  t.order <- [||];
  t.ordered <- true
