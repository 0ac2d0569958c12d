(* Allocation-free data-plane fast path over destination classes.

   A compiled, frozen view of a network's forwarding state — legacy
   routes, SDN flow tables, local delivery sets and link liveness — over dense
   node indices, through which packed int-encoded probes (src index, dst
   address bits, TTL, all immediate ints) are forwarded: one [forward]
   call classifies the probe's fate and hop count without building a
   record, an [option], or any other per-hop value.

   Compilation cuts the address space at the boundaries of every prefix
   any node holds (routes, flow rules, local sets).  Each interval
   between two consecutive boundaries is a destination class: no prefix
   starts or ends inside one, so every node's forwarding function (local
   delivery, then longest-prefix match) is constant on it.  The compiled
   table stores that constant per (class, node): a next index, [drop],
   or [local].  A class's row is thus a functional graph over the nodes
   (each node has at most one successor), and the first probe of a
   class resolves the whole row in one O(n) pass: every node's fate and
   hop count at unbounded TTL.  A probe's own TTL then only decides
   whether it dies first, which is arithmetic on that resolved result.
   A direct-mapped address -> class cache sits in front of the binary
   search that finds a destination's class, so a repeated destination
   costs one read.

   The builder records each node's entries as flat arrays in prefix order,
   ancestors first, so painting them in order leaves each class with its
   longest match.  It marks the snapshot dirty; [forward] recompiles a
   dirty snapshot first, so a builder call made between probes takes
   effect on the next one.  A link change after compilation keeps the
   classes and drops the resolved rows.  Not domain-safe: one snapshot
   per domain. *)

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

(* What [forward] must redo before it reads the tables. *)
type state =
  | Clean
  | Rows_stale (* a link changed since the rows were resolved *)
  | Dirty (* a builder call since the last [compile] *)

(* Address -> class cache slots: a power of two, indexed by the top
   bits of a multiplicative hash. *)
let cache_bits = 8

(* A cache slot packs [(dst lsl row_bits) lor row]; an empty slot is -1,
   whose key part is no 32-bit address. *)
let row_bits = 30

let row_mask = (1 lsl row_bits) - 1

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
  mutable state : state;
  (* Compiled state. *)
  mutable nc : int; (* destination classes *)
  mutable bounds : int array;
      (* class lower bounds, ascending from 0, padded with [addr_end] to
         a power-of-two length *)
  mutable half : int; (* [Array.length bounds / 2]: the search's first step *)
  mutable code : int array; (* class-major: [code.(c * n + i)] *)
  mutable res : int array;
      (* in step with [code]: the cell's result at unbounded TTL, packed
         like [forward]'s, or -1 while its row is unresolved *)
  cache : int array; (* address -> row offset [c * n], direct-mapped *)
  stack : int array; (* the resolve pass's chain of pending nodes *)
  mutable last_cell : int; (* [row + src] of the last probe, -1 for none *)
  mutable last_result : int; (* ...and its packed result *)
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
    state = Dirty;
    nc = 0;
    bounds = [||];
    half = 0;
    code = [||];
    res = [||];
    cache = Array.make (1 lsl cache_bits) (-1);
    stack = Array.make n 0;
    last_cell = -1;
    last_result = 0;
  }

let asn_at t i = t.asns.(i)

let index_of t asn = try Itbl.find t.index asn with Not_found -> -1

(* --- Building the snapshot (allocation here is fine) -------------------- *)

let add_local t i prefix =
  t.locals.(i) <- Ipv4.prefix_to_packed prefix :: t.locals.(i);
  t.state <- Dirty

let add_local_addr t i addr =
  t.locals.(i) <- (Ipv4.addr_to_bits addr lsl 6) lor 32 :: t.locals.(i);
  t.state <- Dirty

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
  t.state <- Dirty

let set_fib t i fib ~code =
  set_entries t i ~max:(Fib.size fib) (fun add -> Fib.iter fib (fun p v -> add p (code v)))

(* A link change keeps the classes: it only voids the resolved rows. *)
let set_link t i j up =
  let k = (i * t.n) + j and v = if up then '\001' else '\000' in
  if Bytes.get t.links k <> v then begin
    Bytes.set t.links k v;
    if t.state = Clean then t.state <- Rows_stale
  end

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
   Action codes outside [0, n) paint as [drop].  Every row starts
   unresolved and the address cache starts empty. *)
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
  if nc * n > row_mask then invalid_arg "Dataplane.compile: class table too large";
  t.code <- Array.make (nc * n) drop;
  t.res <- Array.make (nc * n) (-1);
  Array.fill t.cache 0 (Array.length t.cache) (-1);
  t.last_cell <- -1;
  for i = 0 to n - 1 do
    let prefixes = t.fwd_prefixes.(i) and acts = t.fwd_acts.(i) in
    for j = 0 to t.fwd_len.(i) - 1 do
      let a = acts.(j) in
      fill_classes t i prefixes.(j) (if a >= 0 && a < n then a else drop)
    done;
    List.iter (fun p -> fill_classes t i p local) t.locals.(i)
  done;
  t.state <- Clean

(* --- Resolving a class row ----------------------------------------------- *)

let link_ok t i j = Bytes.unsafe_get t.links ((i * t.n) + j) <> '\000'

(* Resolve every node of the class row at offset [row] to its result at
   unbounded TTL, packed [(hops lsl 2) lor fate_code]: a node that
   delivers locally is Delivered at 0 hops; one with no usable next hop
   is Blackholed at 0; any other node's result is its successor's plus
   one hop, and the nodes of a cycle are Looped after the cycle length
   (the first revisit).  Each unresolved start follows successors,
   pushing them on [stack] (a pushed node's cell holds [-2 - position]),
   until it meets a resolved node, a terminal one, or a node already on
   the stack, which closes a cycle; then it pops, adding a hop per node.
   Every node is pushed at most once, so the pass is O(n). *)
let resolve t row =
  let code = t.code and res = t.res and stack = t.stack in
  for i = 0 to t.n - 1 do
    if res.(row + i) = -1 then begin
      let top = ref 0 and cur = ref i and base = ref (-1) in
      while !base < 0 do
        let v = !cur in
        let r = res.(row + v) in
        if r >= 0 then base := r
        else if r < -1 then begin
          (* [v] is on the stack: the nodes from it up form a cycle *)
          let p = -2 - r in
          let looped = ((!top - p) lsl 2) lor 2 in
          for k = p to !top - 1 do
            res.(row + stack.(k)) <- looped
          done;
          top := p;
          base := looped
        end
        else begin
          let nxt = code.(row + v) in
          if nxt = local then begin
            res.(row + v) <- 0;
            base := 0
          end
          else if nxt < 0 || not (link_ok t v nxt) then begin
            res.(row + v) <- 1;
            base := 1
          end
          else begin
            res.(row + v) <- -2 - !top;
            stack.(!top) <- v;
            incr top;
            cur := nxt
          end
        end
      done;
      for k = !top - 1 downto 0 do
        base := !base + 4;
        res.(row + stack.(k)) <- !base
      done
    end
  done

(* Bring the compiled state up to date with the builder's. *)
let refresh t =
  match t.state with
  | Clean -> ()
  | Dirty -> compile t
  | Rows_stale ->
    Array.fill t.res 0 (Array.length t.res) (-1);
    t.state <- Clean

(* --- The hot path ------------------------------------------------------- *)

(* The row offset of [dst]'s class, on a cache miss: the binary search,
   whose answer replaces the slot's. *)
let miss t dst slot =
  let row = first_class t dst * t.n in
  Array.unsafe_set t.cache slot ((dst lsl row_bits) lor row);
  row

(* A probe's fate at TTL [ttl], from its cell's result at unbounded TTL,
   mirroring the live per-hop order (local delivery, then the revisit
   that proves a loop, then TTL, then lookup and link liveness): a probe
   Delivered or Looped after [hops] hops gets there when it has the
   budget for [hops] links ([hops = 0] needs none: local delivery at the
   source comes before the TTL check); a Blackholed one also needs the
   TTL check at its last node to pass.  Otherwise the TTL runs out at hop
   [max ttl 0].  Nothing on this path allocates. *)
let forward t ~src ~dst_bits ~ttl =
  if src < 0 || src >= t.n then invalid_arg "Dataplane.forward: bad src index";
  if t.state <> Clean then refresh t;
  let dst = dst_bits land (addr_end - 1) in
  let slot = (dst * 0x9E3779B97F4A7C1) lsr (63 - cache_bits) in
  let e = Array.unsafe_get t.cache slot in
  let row = if e lsr row_bits = dst then e land row_mask else miss t dst slot in
  let cell = row + src in
  let r = Array.unsafe_get t.res cell in
  let r =
    if r >= 0 then r
    else begin
      resolve t row;
      Array.unsafe_get t.res cell
    end
  in
  let result =
    if r = 0 || ttl >= (r lsr 2) + (r land 1) then r
    else ((if ttl > 0 then ttl else 0) lsl 2) lor 3 (* Ttl_expired *)
  in
  t.last_cell <- cell;
  t.last_result <- result;
  result

let result_fate r = fate_of_code (r land 3)

let result_fate_code r = r land 3

let result_hops r = r lsr 2

(* The node-index path of the most recent [forward]: its source, then
   the row's successors for as many hops as the probe took. *)
let last_path t =
  if t.last_cell < 0 then [||]
  else begin
    let src = t.last_cell mod t.n in
    let row = t.last_cell - src in
    let path = Array.make ((t.last_result lsr 2) + 1) src in
    for h = 1 to Array.length path - 1 do
      path.(h) <- t.code.(row + path.(h - 1))
    done;
    path
  end
