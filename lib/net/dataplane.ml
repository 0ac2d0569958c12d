(* Allocation-free data-plane fast path over destination classes.

   A compiled, frozen view of a network's forwarding state — legacy
   routes, SDN flow tables, local delivery sets and link liveness — over dense
   node indices, through which packed int-encoded probes (src index, dst
   address bits, TTL, all immediate ints) are forwarded in a batch TTL
   walk: one [forward] call resolves the probe's entire path and
   classifies its fate without building a record, an [option], or any
   other per-hop value.

   Compilation cuts the address space at the boundaries of every prefix
   any node holds (routes, flow rules, local sets).  Each interval
   between two consecutive boundaries is a destination class: no prefix
   starts or ends inside one, so every node's forwarding function (local
   delivery, then longest-prefix match) is constant on it.  The compiled
   table stores that constant per (class, node): a next index, [drop],
   or [local].  [forward] finds the probe's class once, by a branchless
   binary search, and each hop is then one array read plus the visited,
   TTL and link checks.

   The builder records each node's entries as flat arrays in prefix order,
   ancestors first, so painting them in order leaves each class with its
   longest match.  It marks the snapshot dirty; [forward] recompiles a
   dirty snapshot first, so a builder call made between walks takes
   effect on the next one.  Loop detection uses a preallocated
   per-snapshot visited-stamp cursor.  Not domain-safe: one snapshot per
   domain. *)

type fate = Delivered | Blackholed | Looped | Ttl_expired

let fate_of_code = function
  | 0 -> Delivered
  | 1 -> Blackholed
  | 2 -> Looped
  | 3 -> Ttl_expired
  | c -> invalid_arg (Fmt.str "Dataplane.fate_of_code: %d" c)

let fate_to_string = function
  | Delivered -> "delivered"
  | Blackholed -> "blackhole"
  | Looped -> "loop"
  | Ttl_expired -> "ttl_expired"

let pp_fate ppf f = Fmt.string ppf (fate_to_string f)

(* Action code in forwarding entries: a dense next-node index, or [drop]
   for anything that cannot carry the probe onward (no route, an SDN Drop
   or controller punt, a next hop outside the snapshot). *)
let drop = -1

(* Class-table code for "delivered at this node"; it is painted over the
   forwarding entries, because local delivery is checked first. *)
let local = -2

(* One past the last address: the sentinel that pads [bounds]. *)
let addr_end = 1 lsl 32

(* AS number -> dense index, hashed inline (multiply-xorshift) rather
   than through the C [Hashtbl.hash]: the snapshot builder maps every
   next hop and link end through it. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash n =
    let h = n * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

type t = {
  n : int;
  asns : int array; (* dense index -> AS number *)
  index : int Itbl.t; (* AS number -> dense index *)
  (* Builder state.  Prefixes are packed as [(network lsl 6) lor len]
     ({!Ipv4.prefix_to_packed}). *)
  fwd_prefixes : int array array; (* per node, forwarding entries in paint order... *)
  fwd_acts : int array array; (* ...and their action codes, in step... *)
  fwd_len : int array; (* ...of which the first [fwd_len.(i)] are used *)
  locals : int list array; (* per node, locally delivered prefixes *)
  links : Bytes.t; (* n*n directed adjacency, '\001' = usable *)
  mutable dirty : bool; (* a builder call since the last [compile] *)
  (* Compiled state. *)
  mutable nc : int; (* destination classes *)
  mutable bounds : int array;
      (* class lower bounds, ascending from 0, padded with [addr_end] to
         a power-of-two length *)
  mutable half : int; (* [Array.length bounds / 2]: the search's first step *)
  mutable code : int array; (* class-major: [code.(c * n + i)] *)
  visited : int array; (* loop-detection stamps, one slot per node *)
  path : int array; (* the last walk's node sequence *)
  mutable path_len : int;
  mutable stamp : int;
}

let create ~asns =
  let n = Array.length asns in
  let index = Itbl.create (max 16 n) in
  Array.iteri (fun i a -> Itbl.replace index a i) asns;
  {
    n;
    asns = Array.copy asns;
    index;
    fwd_prefixes = Array.make n [||];
    fwd_acts = Array.make n [||];
    fwd_len = Array.make n 0;
    locals = Array.make n [];
    links = Bytes.make (n * n) '\000';
    dirty = true;
    nc = 0;
    bounds = [||];
    half = 0;
    code = [||];
    visited = Array.make n (-1);
    path = Array.make (n + 1) (-1);
    path_len = 0;
    stamp = 0;
  }

let asn_at t i = t.asns.(i)

let index_of t asn = try Itbl.find t.index asn with Not_found -> -1

(* --- Building the snapshot (allocation here is fine) -------------------- *)

let add_local t i prefix =
  t.locals.(i) <- Ipv4.prefix_to_packed prefix :: t.locals.(i);
  t.dirty <- true

let add_local_addr t i addr =
  t.locals.(i) <- (Ipv4.addr_to_bits addr lsl 6) lor 32 :: t.locals.(i);
  t.dirty <- true

(* Entries come in prefix order, ancestors before descendants, so
   painting in their order leaves each class with its longest match. *)
let set_entries t i ~max fill =
  let prefixes = Array.make max 0 and acts = Array.make max drop in
  let j = ref 0 in
  fill (fun p a ->
      prefixes.(!j) <- p;
      acts.(!j) <- a;
      incr j);
  t.fwd_prefixes.(i) <- prefixes;
  t.fwd_acts.(i) <- acts;
  t.fwd_len.(i) <- !j;
  t.dirty <- true

let set_fib t i fib ~code =
  set_entries t i ~max:(Fib.size fib) (fun add -> Fib.iter fib (fun p v -> add p (code v)))

let set_link t i j up = Bytes.set t.links ((i * t.n) + j) (if up then '\001' else '\000')

(* --- Compiling the class table ------------------------------------------ *)

(* The class of an address in [0, addr_end): the largest [k] with
   [bounds.(k) <= dst].  Each step adds [step] exactly when
   [bounds.(k + step) <= dst], i.e. when [bounds.(k + step) - dst - 1]
   is negative: its sign, spread over the word by [asr 62], masks
   [step] without a branch.  A module-level recursion, so no closure
   is allocated per call. *)
let rec classify bounds dst k step =
  if step = 0 then k
  else
    classify bounds dst
      (k + (step land ((Array.unsafe_get bounds (k + step) - dst - 1) asr 62)))
      (step lsr 1)

let first_class t dst = classify t.bounds dst 0 t.half

(* A packed prefix covers the addresses [lo_of p, hi_of p). *)
let lo_of packed = packed lsr 6

let hi_of packed = (packed lsr 6) + (1 lsl (32 - (packed land 63)))

let fill_classes t i packed v =
  let hi = hi_of packed in
  let c1 = if hi >= addr_end then t.nc else first_class t hi in
  for c = first_class t (lo_of packed) to c1 - 1 do
    Array.unsafe_set t.code ((c * t.n) + i) v
  done

(* Compile the class table from the builder state: cut the address space
   at every prefix's ends, then paint each node's entries over its
   column ([drop] where nothing is painted) and its local prefixes last.
   Action codes outside [0, n) paint as [drop]. *)
let compile t =
  let n = t.n in
  let count =
    Array.fold_left (fun a k -> a + (2 * k)) 1 t.fwd_len
    + Array.fold_left (fun a l -> a + (2 * List.length l)) 0 t.locals
  in
  let cuts = Array.make count 0 in
  let k = ref 1 in
  (* Nodes mostly hold the same prefixes, so a direct-mapped filter of
     recent cuts drops most repeats before the sort (a snapshot is
     compiled every probe burst); the dedup after it removes the rest. *)
  let recent = Array.make 256 (-1) in
  let add v =
    let h = ((v * 0x9E3779B97F4A7C1) lsr 40) land 255 in
    if recent.(h) <> v then begin
      recent.(h) <- v;
      cuts.(!k) <- v;
      incr k
    end
  in
  let cut packed =
    add (lo_of packed);
    add (hi_of packed)
  in
  for i = 0 to n - 1 do
    for j = 0 to t.fwd_len.(i) - 1 do
      cut t.fwd_prefixes.(i).(j)
    done
  done;
  Array.iter (List.iter cut) t.locals;
  let count = !k in
  let cuts = Array.sub cuts 0 count in
  Array.sort Int.compare cuts;
  (* dedup in place; [addr_end] ends the last class rather than starting
     one *)
  let nc = ref 1 in
  for j = 1 to count - 1 do
    if cuts.(j) <> cuts.(!nc - 1) && cuts.(j) < addr_end then begin
      cuts.(!nc) <- cuts.(j);
      incr nc
    end
  done;
  let nc = !nc in
  let width = ref 1 in
  while !width < nc do
    width := 2 * !width
  done;
  t.bounds <- Array.init !width (fun j -> if j < nc then cuts.(j) else addr_end);
  t.half <- !width / 2;
  t.nc <- nc;
  t.code <- Array.make (nc * n) drop;
  for i = 0 to n - 1 do
    let prefixes = t.fwd_prefixes.(i) and acts = t.fwd_acts.(i) in
    for j = 0 to t.fwd_len.(i) - 1 do
      let a = acts.(j) in
      fill_classes t i prefixes.(j) (if a >= 0 && a < n then a else drop)
    done;
    List.iter (fun p -> fill_classes t i p local) t.locals.(i)
  done;
  t.dirty <- false

(* --- The hot path ------------------------------------------------------- *)

let link_ok t i j = Bytes.unsafe_get t.links ((i * t.n) + j) <> '\000'

(* Forward one probe of class row [row] to its final fate.  Mirrors the
   live per-hop order exactly (local delivery, then TTL, then lookup,
   then link liveness); the only addition is loop classification:
   forwarding state is frozen during a walk, so revisiting a node proves
   a persistent cycle — a real packet would go on to die of TTL there.
   Returns the packed int [(hops lsl 2) lor fate_code]; nothing on this
   path allocates. *)
let rec walk t stamp row cur ttl hops =
  Array.unsafe_set t.path hops cur;
  let nxt = Array.unsafe_get t.code (row + cur) in
  if nxt = local then begin
    t.path_len <- hops + 1;
    hops lsl 2 (* Delivered = 0 *)
  end
  else if Array.unsafe_get t.visited cur = stamp then begin
    t.path_len <- hops + 1;
    (hops lsl 2) lor 2 (* Looped *)
  end
  else begin
    Array.unsafe_set t.visited cur stamp;
    if ttl <= 0 then begin
      t.path_len <- hops + 1;
      (hops lsl 2) lor 3 (* Ttl_expired *)
    end
    else if nxt < 0 || not (link_ok t cur nxt) then begin
      t.path_len <- hops + 1;
      (hops lsl 2) lor 1 (* Blackholed *)
    end
    else walk t stamp row nxt (ttl - 1) (hops + 1)
  end

let forward t ~src ~dst_bits ~ttl =
  if src < 0 || src >= t.n then invalid_arg "Dataplane.forward: bad src index";
  if t.dirty then compile t;
  t.stamp <- t.stamp + 1;
  let c = first_class t (dst_bits land (addr_end - 1)) in
  walk t t.stamp (c * t.n) src ttl 0

let result_fate r = fate_of_code (r land 3)

let result_fate_code r = r land 3

let result_hops r = r lsr 2

(* The node-index path of the most recent [forward] (copied out). *)
let last_path t = Array.sub t.path 0 t.path_len
