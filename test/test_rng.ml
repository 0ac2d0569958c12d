(* Engine.Rng: determinism, stream independence, range contracts. *)

open Engine

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let da = List.init 50 (fun _ -> Rng.next_int64 a) in
  let db = List.init 50 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "same seed, same stream" true (da = db)

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (List.init 10 (fun _ -> Rng.next_int64 a) = List.init 10 (fun _ -> Rng.next_int64 b))

let test_split_independence () =
  (* Drawing from a split stream must not perturb the parent beyond the
     single split draw. *)
  let parent1 = Rng.create 7 in
  let child1 = Rng.split parent1 in
  ignore (List.init 100 (fun _ -> Rng.next_int64 child1));
  let after_child_use = List.init 10 (fun _ -> Rng.next_int64 parent1) in
  let parent2 = Rng.create 7 in
  let _child2 = Rng.split parent2 in
  let reference = List.init 10 (fun _ -> Rng.next_int64 parent2) in
  Alcotest.(check bool) "parent unaffected by child draws" true (after_child_use = reference)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "int out of bounds"
  done

let test_int_range_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_range rng 10 20 in
    if v < 10 || v > 20 then Alcotest.fail "int_range out of bounds"
  done

let test_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_invalid_args () =
  let rng = Rng.create 6 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng ([] : int list)))

let test_jitter_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 200 do
    let s = Rng.jitter_span rng (Time.sec 30) ~lo:0.75 ~hi:1.0 in
    let sec = Time.to_sec_f s in
    if sec < 22.5 -. 1e-6 || sec >= 30.0 +. 1e-6 then
      Alcotest.failf "jitter out of bounds: %f" sec
  done

(* The first 1,000 draws of each stream from seed 2014, rendered one per
   line ([float] in hex, so every bit counts) and digested.  The digests
   were recorded from the boxed-[int64] generator this one replaced, so
   a change of representation cannot move a stream. *)
let pinned =
  [
    ("int", "5f9be99c8e15fc6473c8c5b1d61667a7", fun r -> string_of_int (Rng.int r 1000));
    (* a bound near 2^62 rejects about a quarter of its draws *)
    ("int wide", "bf7c5541a746b8273a17367aa023a8f9", fun r -> string_of_int (Rng.int r (3 lsl 60)));
    ( "int_range",
      "0a35ce26acd1d85d2254cef875b021ce",
      fun r -> string_of_int (Rng.int_range r 10_000 50_000) );
    ("float", "adfda5adf7379428ef2aabd760fe7d81", fun r -> Printf.sprintf "%h" (Rng.float r 1.0));
    ("chance", "14e54db2ddd01a3f37874a8249e27848", fun r -> string_of_bool (Rng.chance r 0.3));
    ( "jitter_span",
      "56985e44532a1ded7e6224d93a72359e",
      fun r -> string_of_int (Time.to_us (Rng.jitter_span r (Time.sec 30) ~lo:0.75 ~hi:1.0)) );
  ]

let test_pinned_streams () =
  List.iter
    (fun (name, digest, draw) ->
      let rng = Rng.create 2014 in
      let buf = Buffer.create 16384 in
      for _ = 1 to 1000 do
        Buffer.add_string buf (draw rng);
        Buffer.add_char buf '\n'
      done;
      Alcotest.(check string) name digest (Digest.to_hex (Digest.string (Buffer.contents buf))))
    pinned

(* Minor words per call of [draw], over 1,000 calls after a warm-up. *)
let words_per_draw draw =
  for _ = 1 to 100 do
    draw ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    draw ()
  done;
  (Gc.minor_words () -. before) /. 1000.0

let test_draws_allocate_nothing () =
  let rng = Rng.create 9 and config = Bgp.Config.default in
  List.iter
    (fun (name, draw) -> Alcotest.(check (float 0.01)) name 0.0 (words_per_draw draw))
    [
      ("int", fun () -> ignore (Sys.opaque_identity (Rng.int rng 1000)));
      ("int_range", fun () -> ignore (Sys.opaque_identity (Rng.int_range rng 10_000 50_000)));
      ("chance", fun () -> ignore (Sys.opaque_identity (Rng.chance rng 0.3)));
      ("bool", fun () -> ignore (Sys.opaque_identity (Rng.bool rng)));
      ( "jitter_span",
        fun () ->
          ignore (Sys.opaque_identity (Rng.jitter_span rng (Time.sec 30) ~lo:0.75 ~hi:1.0)) );
      ( "processing_delay",
        fun () -> ignore (Sys.opaque_identity (Bgp.Config.processing_delay config rng)) );
      ( "jittered_mrai",
        fun () -> ignore (Sys.opaque_identity (Bgp.Config.jittered_mrai config rng)) );
    ]

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      List.sort Int.compare (Rng.shuffle rng l) = List.sort Int.compare l)

let prop_sample_size =
  QCheck.Test.make ~name:"sample size is min(k, |l|)" ~count:200
    QCheck.(triple small_int small_nat (list small_int))
    (fun (seed, k, l) ->
      let rng = Rng.create seed in
      List.length (Rng.sample rng k l) = min k (List.length l))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_range bounds" `Quick test_int_range_bounds;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "mrai jitter bounds" `Quick test_jitter_bounds;
    Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_sample_size;
  ]
