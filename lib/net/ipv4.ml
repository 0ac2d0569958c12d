(* IPv4 addresses and prefixes.

   Addresses are int32 in network order semantics (bit 31 = first octet's
   MSB); all arithmetic goes through Int32 logical ops so the full unsigned
   range works. *)

type addr = int32

type prefix = { network : int32; len : int }

let compare_addr a b =
  (* unsigned comparison *)
  Int32.unsigned_compare a b

let equal_addr = Int32.equal

let addr_of_int32 i = i

let addr_of_octets a b c d =
  if a < 0 || a > 255 || b < 0 || b > 255 || c < 0 || c > 255 || d < 0 || d > 255 then
    invalid_arg "Ipv4.addr_of_octets";
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

let octets a =
  let byte shift = Int32.to_int (Int32.logand (Int32.shift_right_logical a shift) 0xFFl) in
  (byte 24, byte 16, byte 8, byte 0)

let pp_addr ppf a =
  let o1, o2, o3, o4 = octets a in
  Fmt.pf ppf "%d.%d.%d.%d" o1 o2 o3 o4

let addr_of_string s =
  match String.split_on_char '.' (String.trim s) with
  | [ a; b; c; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
    | Some a, Some b, Some c, Some d
      when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255
      -> Some (addr_of_octets a b c d)
    | _ -> None)
  | _ -> None

let mask_of_len len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

(* Address bits as a non-negative OCaml int.  [Int32.to_int] returns an
   immediate value, so both directions of the hot-path int encoding are
   allocation-free reads; only [addr_of_bits] boxes (build time only). *)
let addr_to_bits (a : addr) = Int32.to_int a land 0xffff_ffff

let addr_of_bits b = Int32.of_int b

(* Dotted quad of the 32 address bits (as in [addr_to_bits]) followed by
   [suffix]: one concatenation, no Format buffer. *)
let dotted_quad bits suffix =
  let octet shift = string_of_int ((bits lsr shift) land 0xFF) in
  String.concat "" [ octet 24; "."; octet 16; "."; octet 8; "."; octet 0; suffix ]

let addr_to_string a = dotted_quad (addr_to_bits a) ""

let mask_bits len = if len = 0 then 0 else 0xffff_ffff lsl (32 - len) land 0xffff_ffff

let apply_mask addr len = Int32.logand addr (mask_of_len len)

let prefix addr len =
  if len < 0 || len > 32 then invalid_arg (Fmt.str "Ipv4.prefix: bad length %d" len);
  { network = apply_mask addr len; len }

let prefix_len p = p.len

let prefix_network p = p.network

let compare_prefix p q =
  let c = Int32.unsigned_compare p.network q.network in
  if c <> 0 then c else Int.compare p.len q.len

let equal_prefix p q = compare_prefix p q = 0

let mem addr p = Int32.equal (apply_mask addr p.len) p.network

let subsumes ~outer ~inner =
  outer.len <= inner.len && Int32.equal (apply_mask inner.network outer.len) outer.network

let pp_prefix ppf p = Fmt.pf ppf "%a/%d" pp_addr p.network p.len

(* Packed prefix: the network's 32 bits above a 6-bit length, so it is an
   immediate int on 64-bit hosts. *)
let prefix_to_packed p = (addr_to_bits p.network lsl 6) lor p.len

(* Inline multiply-xorshift mix instead of the C [Hashtbl.hash]: the low
   bits of a packed /24 (zero host byte, constant length) carry no
   entropy, and [Prefix_table] takes a slot from the low 32 bits. *)
let hash_packed n =
  let h = n * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let prefix_of_packed n = { network = Int32.of_int (n lsr 6); len = n land 63 }

let packed_prefix_to_string n = dotted_quad (n lsr 6) ("/" ^ string_of_int (n land 63))

let prefix_to_string p = packed_prefix_to_string (prefix_to_packed p)

let prefix_of_string s =
  match String.split_on_char '/' (String.trim s) with
  | [ addr; len ] -> (
    match (addr_of_string addr, int_of_string_opt len) with
    | Some a, Some l when l >= 0 && l <= 32 -> Some (prefix a l)
    | _ -> None)
  | [ addr ] -> Option.map (fun a -> prefix a 32) (addr_of_string addr)
  | _ -> None

(* The span is an [int]: a /0 spans 2^32 addresses, which no [Int32]
   shift can count. *)
let nth_host p n =
  if n < 0 || n >= 1 lsl (32 - p.len) then invalid_arg "Ipv4.nth_host";
  Int32.add p.network (Int32.of_int n)

(* Exact-match table keyed by [prefix_to_packed]: open addressing with
   linear probing and no per-entry cell.  A slot's key word is the packed
   prefix; [empty] (negative) marks a free slot.  The table is at most
   three quarters full and grows by half, so it spends 2.7 to 4 words
   per entry (a chained hash table spends about 4.5).  A key's home slot
   scales the hash's low 32 bits to the capacity, which need not be a
   power of two.  Both arrays are allocated on the first insert and
   dropped when the table empties, so an unused table costs its record
   only.  Deletion shifts later members of the probe run back, so runs
   stay unbroken without tombstones.  Packed order is [compare_prefix]
   order (network bits above the length), so sorting the keys gives
   [compare_prefix] order. *)
module Prefix_table = struct
  let empty = -1

  type 'a t = {
    mutable keys : int array; (* packed prefix, or [empty] *)
    mutable vals : 'a array; (* as long as [keys] *)
    mutable size : int;
  }

  let create () = { keys = [||]; vals = [||]; size = 0 }

  let size t = t.size

  let is_empty t = t.size = 0

  let home_of n key = ((hash_packed key land 0xffff_ffff) * n) lsr 32

  let next n i = if i + 1 = n then 0 else i + 1

  (* How far slot [j] lies after slot [i], cyclically. *)
  let after n i j = if j >= i then j - i else j - i + n

  (* The slot holding [key], or the empty slot that ends its probe run. *)
  let rec probe keys n key i =
    let k = keys.(i) in
    if k = key || k = empty then i else probe keys n key (next n i)

  let home keys key =
    let n = Array.length keys in
    probe keys n key (home_of n key)

  let slot t key =
    if t.size = 0 then -1
    else
      let i = home t.keys key in
      if t.keys.(i) = empty then -1 else i

  let value t i = t.vals.(i)

  let set_value t i v = t.vals.(i) <- v

  let packed_at t i = t.keys.(i)

  (* Free slots hold [filler], the value being inserted: see [remove_slot]. *)
  let resize t capacity filler =
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make capacity empty;
    t.vals <- Array.make capacity filler;
    Array.iteri
      (fun j k ->
        if k <> empty then begin
          let i = home t.keys k in
          t.keys.(i) <- k;
          t.vals.(i) <- vals.(j)
        end)
      keys

  let add t key v =
    let n = Array.length t.keys in
    if n = 0 then begin
      t.keys <- Array.make 2 empty;
      t.vals <- Array.make 2 v
    end
    else if 4 * (t.size + 1) > 3 * n then resize t (n + (n / 2)) v;
    let i = home t.keys key in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    i

  let clear t =
    t.keys <- [||];
    t.vals <- [||];
    t.size <- 0

  (* Backward-shift deletion: each later member of the probe run moves into
     the hole unless its home slot lies cyclically in (hole, j].  The last
     hole takes the value of the free slot that ends the run, so removed
     values do not accumulate: free slots hold only the value the last
     resize filled them with. *)
  let rec shift keys vals n hole j =
    let k = keys.(j) in
    if k = empty then begin
      keys.(hole) <- empty;
      vals.(hole) <- vals.(j)
    end
    else if after n (home_of n k) j >= after n hole j then begin
      keys.(hole) <- k;
      vals.(hole) <- vals.(j);
      shift keys vals n j (next n j)
    end
    else shift keys vals n hole (next n j)

  let remove_slot t i =
    if t.size = 1 then clear t
    else begin
      t.size <- t.size - 1;
      let n = Array.length t.keys in
      shift t.keys t.vals n i (next n i)
    end

  let sorted_slots t =
    let keys = t.keys in
    let order = Array.make t.size 0 and j = ref 0 in
    Array.iteri
      (fun i k ->
        if k <> empty then begin
          order.(!j) <- i;
          incr j
        end)
      keys;
    Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
    order

  let find p t =
    match slot t (prefix_to_packed p) with -1 -> None | i -> Some t.vals.(i)

  let mem p t = slot t (prefix_to_packed p) >= 0

  let set p v t =
    let key = prefix_to_packed p in
    match slot t key with -1 -> ignore (add t key v) | i -> t.vals.(i) <- v

  let remove p t = match slot t (prefix_to_packed p) with -1 -> () | i -> remove_slot t i

  let entries t =
    Array.fold_right
      (fun i acc -> (prefix_of_packed (packed_at t i), t.vals.(i)) :: acc)
      (sorted_slots t) []

  let keys t =
    Array.fold_right (fun i acc -> prefix_of_packed (packed_at t i) :: acc) (sorted_slots t) []
end

module Prefix_map = Map.Make (struct
  type t = prefix

  let compare = compare_prefix
end)

module Prefix_set = Set.Make (struct
  type t = prefix

  let compare = compare_prefix
end)
