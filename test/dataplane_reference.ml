(* Reference implementation of [Net.Dataplane]: the original per-hop
   walk, kept as an oracle for the destination-class table.  Each hop
   scans the node's local prefixes, then looks the destination up in its
   own trie copy.  The builder takes the same calls as [Net.Dataplane],
   so a test can drive both with one program; action codes outside
   [0, n) drop. *)

let drop = Net.Dataplane.drop

type t = {
  n : int;
  fibs : int Net.Fib.t array; (* per node, LPM tries whose values are action codes *)
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
  {
    n;
    fibs = Array.init n (fun _ -> Net.Fib.create ());
    local_nets = Array.make n [||];
    local_masks = Array.make n [||];
    links = Bytes.make (n * n) '\000';
    visited = Array.make n (-1);
    path = Array.make (n + 1) (-1);
    path_len = 0;
    stamp = 0;
  }

let add_local t i prefix =
  let net = Net.Ipv4.addr_to_bits (Net.Ipv4.prefix_network prefix) in
  let mask = Net.Ipv4.mask_bits (Net.Ipv4.prefix_len prefix) in
  t.local_nets.(i) <- Array.append t.local_nets.(i) [| net |];
  t.local_masks.(i) <- Array.append t.local_masks.(i) [| mask |]

let add_local_addr t i addr =
  t.local_nets.(i) <- Array.append t.local_nets.(i) [| Net.Ipv4.addr_to_bits addr |];
  t.local_masks.(i) <- Array.append t.local_masks.(i) [| Net.Ipv4.mask_bits 32 |]

let set_fib t i fib ~code =
  let copy = Net.Fib.create () in
  List.iter (fun (p, v) -> Net.Fib.insert copy p (code v)) (Net.Fib.entries fib);
  t.fibs.(i) <- copy

let set_link t i j up = Bytes.set t.links ((i * t.n) + j) (if up then '\001' else '\000')

let is_local t i dst_bits =
  let nets = t.local_nets.(i) and masks = t.local_masks.(i) in
  let rec scan j = j < Array.length nets && (dst_bits land masks.(j) = nets.(j) || scan (j + 1)) in
  scan 0

let next_of t i dst_bits =
  let nxt =
    Option.value (Net.Fib.lookup_value t.fibs.(i) (Net.Ipv4.addr_of_bits dst_bits)) ~default:drop
  in
  if nxt >= t.n then drop else nxt

let link_ok t i j = Bytes.get t.links ((i * t.n) + j) <> '\000'

(* Local delivery, then loop, then TTL, then lookup, then link liveness;
   the packed result is [(hops lsl 2) lor fate_code]. *)
let forward t ~src ~dst_bits ~ttl =
  t.stamp <- t.stamp + 1;
  let finish hops fate =
    t.path_len <- hops + 1;
    (hops lsl 2) lor fate
  in
  let rec walk cur ttl hops =
    t.path.(hops) <- cur;
    if is_local t cur dst_bits then finish hops 0
    else if t.visited.(cur) = t.stamp then finish hops 2
    else begin
      t.visited.(cur) <- t.stamp;
      if ttl <= 0 then finish hops 3
      else
        let nxt = next_of t cur dst_bits in
        if nxt < 0 || not (link_ok t cur nxt) then finish hops 1
        else walk nxt (ttl - 1) (hops + 1)
    end
  in
  walk src ttl 0

let last_path t = Array.sub t.path 0 t.path_len
