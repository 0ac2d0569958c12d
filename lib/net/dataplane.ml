(* Allocation-free data-plane fast path.

   A compiled, frozen view of a network's forwarding state — legacy FIBs,
   SDN flow tables, local delivery sets and link liveness — over dense
   node indices, through which packed int-encoded probes (src index, dst
   address bits, TTL, all immediate ints) are forwarded in a batch TTL
   walk: one [forward] call resolves the probe's entire path and
   classifies its fate without building a record, an [option], or any
   other per-hop value.

   The structure is a snapshot: compile it (cheap, proportional to table
   sizes), fire millions of probes, recompile after the control plane
   moves.  Loop detection uses a preallocated per-snapshot visited-stamp
   cursor, so repeated walks share scratch instead of allocating visited
   sets.  Not domain-safe: one snapshot per domain. *)

type fate = Delivered | Blackholed | Looped | Ttl_expired

let fate_code = function Delivered -> 0 | Blackholed -> 1 | Looped -> 2 | Ttl_expired -> 3

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

type fwd =
  | No_fwd
  | Fib of int Fib.t (* LPM trie whose values are action codes *)
  | Rules of { nets : int array; masks : int array; acts : int array }
      (* a flow table flattened in its (priority desc, length desc)
         order: first int-mask match wins, exactly like the live table *)

type t = {
  n : int;
  asns : int array; (* dense index -> AS number *)
  index : (int, int) Hashtbl.t; (* AS number -> dense index *)
  fwd : fwd array;
  mutable local_nets : int array array; (* per node: masked networks... *)
  mutable local_masks : int array array; (* ...and their masks, in step *)
  links : Bytes.t; (* n*n directed adjacency, '\001' = usable *)
  visited : int array; (* loop-detection stamps, one slot per node *)
  path : int array; (* the last walk's node sequence *)
  mutable path_len : int;
  mutable stamp : int;
}

let create ~asns =
  let n = Array.length asns in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i a -> Hashtbl.replace index a i) asns;
  {
    n;
    asns = Array.copy asns;
    index;
    fwd = Array.make n No_fwd;
    local_nets = Array.make n [||];
    local_masks = Array.make n [||];
    links = Bytes.make (n * n) '\000';
    visited = Array.make n (-1);
    path = Array.make (n + 1) (-1);
    path_len = 0;
    stamp = 0;
  }

let size t = t.n

let asn_at t i = t.asns.(i)

let index_of t asn = match Hashtbl.find_opt t.index asn with Some i -> i | None -> -1

(* --- Building the snapshot (allocation here is fine) -------------------- *)

let add_local t i prefix =
  let net = Ipv4.addr_to_bits (Ipv4.prefix_network prefix) in
  let mask = Ipv4.mask_bits (Ipv4.prefix_len prefix) in
  t.local_nets.(i) <- Array.append t.local_nets.(i) [| net |];
  t.local_masks.(i) <- Array.append t.local_masks.(i) [| mask |]

let add_local_addr t i addr =
  t.local_nets.(i) <- Array.append t.local_nets.(i) [| Ipv4.addr_to_bits addr |];
  t.local_masks.(i) <- Array.append t.local_masks.(i) [| Ipv4.mask_bits 32 |]

let set_fib t i fib = t.fwd.(i) <- Fib fib

let set_rules t i ~nets ~masks ~acts =
  if Array.length nets <> Array.length masks || Array.length nets <> Array.length acts then
    invalid_arg "Dataplane.set_rules: length mismatch";
  t.fwd.(i) <- Rules { nets; masks; acts }

let set_link t i j up = Bytes.set t.links ((i * t.n) + j) (if up then '\001' else '\000')

(* --- The hot path ------------------------------------------------------- *)

(* Every scan on the hot path is a module-level recursion: a local
   [let rec] capturing the probe would allocate its closure on each
   call, and at millions of probes per second that is the whole
   allocation budget. *)

let rec local_scan nets masks dst_bits j k =
  j < k
  && (dst_bits land Array.unsafe_get masks j = Array.unsafe_get nets j
     || local_scan nets masks dst_bits (j + 1) k)

let is_local t i dst_bits =
  let nets = Array.unsafe_get t.local_nets i in
  local_scan nets (Array.unsafe_get t.local_masks i) dst_bits 0 (Array.length nets)

let rec rules_scan nets masks acts dst_bits j n =
  if j >= n then drop
  else if dst_bits land Array.unsafe_get masks j = Array.unsafe_get nets j then
    Array.unsafe_get acts j
  else rules_scan nets masks acts dst_bits (j + 1) n

let next_of t i dst_bits =
  match Array.unsafe_get t.fwd i with
  | No_fwd -> drop
  | Fib f -> Fib.lookup_bits f ~default:drop dst_bits
  | Rules r -> rules_scan r.nets r.masks r.acts dst_bits 0 (Array.length r.nets)

let link_ok t i j = Bytes.unsafe_get t.links ((i * t.n) + j) <> '\000'

(* Forward one probe to its final fate.  Mirrors the live per-hop order
   exactly (local delivery, then TTL, then lookup, then link liveness);
   the only addition is loop classification: forwarding state is frozen
   during a walk, so revisiting a node proves a persistent cycle — a real
   packet would go on to die of TTL there.  Returns the packed int
   [(hops lsl 2) lor fate_code]; nothing on this path allocates. *)
let rec walk t stamp dst_bits cur ttl hops =
  Array.unsafe_set t.path hops cur;
  if is_local t cur dst_bits then begin
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
    else begin
      let nxt = next_of t cur dst_bits in
      if nxt < 0 || not (link_ok t cur nxt) then begin
        t.path_len <- hops + 1;
        (hops lsl 2) lor 1 (* Blackholed *)
      end
      else walk t stamp dst_bits nxt (ttl - 1) (hops + 1)
    end
  end

let forward t ~src ~dst_bits ~ttl =
  if src < 0 || src >= t.n then invalid_arg "Dataplane.forward: bad src index";
  t.stamp <- t.stamp + 1;
  walk t t.stamp dst_bits src ttl 0

let result_fate r = fate_of_code (r land 3)

let result_fate_code r = r land 3

let result_hops r = r lsr 2

(* The node-index path of the most recent [forward] (copied out). *)
let last_path t = Array.sub t.path 0 t.path_len

let pp ppf t =
  Fmt.pf ppf "dataplane snapshot: %d nodes, %d fibs, %d rule tables" t.n
    (Array.fold_left (fun a f -> match f with Fib _ -> a + 1 | _ -> a) 0 t.fwd)
    (Array.fold_left (fun a f -> match f with Rules _ -> a + 1 | _ -> a) 0 t.fwd)
