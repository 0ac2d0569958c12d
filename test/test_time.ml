(* Engine.Time: instants, spans, conversions. *)

open Engine

let check_time = Alcotest.testable Time.pp Time.equal

let test_constructors () =
  Alcotest.(check int) "us" 5 (Time.to_us (Time.us 5));
  Alcotest.(check int) "ms" 5_000 (Time.to_us (Time.ms 5));
  Alcotest.(check int) "sec" 5_000_000 (Time.to_us (Time.sec 5));
  Alcotest.check check_time "of_sec_f" (Time.sec 2) (Time.of_sec_f 2.0)

let test_arithmetic () =
  let t = Time.add Time.zero (Time.sec 3) in
  Alcotest.check check_time "add" (Time.sec 3) t;
  Alcotest.check check_time "diff" (Time.sec 2) (Time.diff (Time.sec 5) (Time.sec 3));
  Alcotest.check check_time "span_add" (Time.ms 1500)
    (Time.span_add (Time.sec 1) (Time.ms 500))

let test_comparisons () =
  Alcotest.(check bool) "lt" true Time.(Time.ms 1 < Time.ms 2);
  Alcotest.(check bool) "le refl" true Time.(Time.ms 1 <= Time.ms 1);
  Alcotest.(check bool) "gt" true Time.(Time.ms 3 > Time.ms 2);
  Alcotest.(check bool) "ge" true Time.(Time.ms 3 >= Time.ms 3);
  Alcotest.check check_time "min" (Time.ms 1) (Time.min (Time.ms 1) (Time.ms 2));
  Alcotest.check check_time "max" (Time.ms 2) (Time.max (Time.ms 1) (Time.ms 2))

let test_scale () =
  Alcotest.check check_time "scale 0.5" (Time.ms 500) (Time.span_scale (Time.sec 1) 0.5);
  Alcotest.check check_time "scale 2.0" (Time.sec 2) (Time.span_scale (Time.sec 1) 2.0)

let test_conversions () =
  Alcotest.(check (float 1e-9)) "to_sec_f" 1.5 (Time.to_sec_f (Time.ms 1500));
  Alcotest.(check (float 1e-9)) "to_ms_f" 1500.0 (Time.to_ms_f (Time.ms 1500));
  Alcotest.(check string) "to_string" "1.500s" (Time.to_string (Time.ms 1500))

(* The int representation must round exactly as the former int64 one:
   truncation toward zero of the float product. *)
let ref_of_sec_f f = Int64.to_int (Int64.of_float (f *. 1e6))

let ref_span_scale us f = Int64.to_int (Int64.of_float (Int64.to_float (Int64.of_int us) *. f))

let test_int64_reference () =
  List.iter
    (fun f ->
      Alcotest.(check int) (Printf.sprintf "of_sec_f %h" f) (ref_of_sec_f f)
        (Time.to_us (Time.of_sec_f f)))
    [ 0.0; 1.5; -1.5; 4e-7; -4e-7; 1e-6; 9.999e-7; 2.9999999; -2.9999999; 30.0; 1e6; -1e6;
      1234567.891234 ];
  let spans = [ 1; 3; 999_999; 5_000_000; 30_000_000; -3_000_000; 1_000_000_000_000 ] in
  let factors = [ 0.75; 0.8; 0.875; 0.9; 0.9999999; 1.0; 1.0 /. 3.0; 0.5; -0.75; 1e-7 ] in
  List.iter
    (fun us ->
      List.iter
        (fun f ->
          Alcotest.(check int) (Printf.sprintf "span_scale %d %h" us f) (ref_span_scale us f)
            (Time.to_us (Time.span_scale (Time.us us) f)))
        factors)
    spans;
  Alcotest.(check int) "10^12 us round-trips" 1_000_000_000_000
    (Time.to_us (Time.of_us 1_000_000_000_000));
  Alcotest.(check int) "10^12 us = 10^6 s" 1_000_000_000_000 (Time.to_us (Time.sec 1_000_000))

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "span scaling" `Quick test_scale;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "int64 reference rounding" `Quick test_int64_reference;
  ]
