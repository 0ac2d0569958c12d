(* Deterministic artificial topologies.

   The paper's headline experiment runs on a 16-AS clique with full route
   propagation (Open links), which is the classic BGP path-exploration
   worst case.  The other shapes are standard building blocks for
   experiment design. *)

let base_asn = 65001

let asn i = Net.Asn.of_int (base_asn + i)

let nodes n = List.init n (fun i -> Spec.node (asn i))

let clique ?(rel = Spec.Open) n =
  if n < 2 then invalid_arg "Artificial.clique: need at least 2 nodes";
  let links = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      links := Spec.link ~rel (asn i) (asn j) :: !links
    done
  done;
  Spec.make ~title:(Fmt.str "clique-%d" n) ~nodes:(nodes n) ~links:(List.rev !links)

(* Hub is provider of every leaf by default (a classic access topology). *)
let star ?(rel = Spec.C2p) n =
  if n < 2 then invalid_arg "Artificial.star: need at least 2 nodes";
  let links = List.init (n - 1) (fun i -> Spec.link ~rel (asn (i + 1)) (asn 0)) in
  Spec.make ~title:(Fmt.str "star-%d" n) ~nodes:(nodes n) ~links

let line ?(rel = Spec.Open) n =
  if n < 2 then invalid_arg "Artificial.line: need at least 2 nodes";
  let links = List.init (n - 1) (fun i -> Spec.link ~rel (asn i) (asn (i + 1))) in
  Spec.make ~title:(Fmt.str "line-%d" n) ~nodes:(nodes n) ~links

let ring ?(rel = Spec.Open) n =
  if n < 3 then invalid_arg "Artificial.ring: need at least 3 nodes";
  let links =
    Spec.link ~rel (asn (n - 1)) (asn 0)
    :: List.init (n - 1) (fun i -> Spec.link ~rel (asn i) (asn (i + 1)))
  in
  Spec.make ~title:(Fmt.str "ring-%d" n) ~nodes:(nodes n) ~links

let stub_asn spec =
  match List.rev (Spec.nodes spec) with
  | [] -> invalid_arg "Artificial.stub_asn: empty spec"
  | last :: _ -> last.Spec.asn

(* Fail-over with real path exploration: a stub AS has a short primary
   path into clique member 0 and a strictly longer backup path — a chain
   of [chain_len] transit ASes into clique member 1.  When the primary
   link dies, clique members hold stale length-3 paths through each other
   ([X, member0, stub]) that beat the longer backup, so they explore them
   MRAI round by MRAI round before settling on the backup — the dynamics
   the paper's fail-over experiment stresses.

   Node layout: 0..n-1 clique, n..n+chain_len-1 the backup chain
   (stub-side first), n+chain_len the stub. *)
let failover_backup_chain ?(clique_size = 16) ?(chain_len = 2) () =
  if clique_size < 2 || chain_len < 1 then invalid_arg "Artificial.failover_backup_chain";
  let base = clique ~rel:Spec.Open clique_size in
  let chain = List.init chain_len (fun i -> asn (clique_size + i)) in
  let stub = asn (clique_size + chain_len) in
  let chain_links =
    (* stub -> chain.0 -> chain.1 -> ... -> clique member 1 *)
    let hops = (stub :: chain) @ [ asn 1 ] in
    let rec pair = function
      | a :: (b :: _ as rest) -> Spec.link ~rel:Spec.Open a b :: pair rest
      | [ _ ] | [] -> []
    in
    pair hops
  in
  Spec.make
    ~title:(Fmt.str "failover-chain-%d-%d" clique_size chain_len)
    ~nodes:(Spec.nodes base @ List.map Spec.node chain @ [ Spec.node stub ])
    ~links:(Spec.links base @ [ Spec.link ~rel:Spec.Open stub (asn 0) ] @ chain_links)
