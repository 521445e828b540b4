(* Tests for the probability substrate: Rng, Dist, Stats, Sampling. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

(* -------------------- Rng -------------------- *)

let test_rng_deterministic () =
  let a = Prob.Rng.create ~seed:42 and b = Prob.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check bool_t "same stream" true (Prob.Rng.bits64 a = Prob.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Prob.Rng.create ~seed:1 and b = Prob.Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prob.Rng.bits64 a <> Prob.Rng.bits64 b then differs := true
  done;
  check bool_t "streams differ" true !differs

let test_rng_split_independent () =
  let a = Prob.Rng.create ~seed:7 in
  let b = Prob.Rng.split a in
  let c = Prob.Rng.split a in
  check bool_t "children differ" true (Prob.Rng.bits64 b <> Prob.Rng.bits64 c)

let test_rng_copy () =
  let a = Prob.Rng.create ~seed:5 in
  ignore (Prob.Rng.bits64 a);
  let b = Prob.Rng.copy a in
  check bool_t "copy replays" true (Prob.Rng.bits64 a = Prob.Rng.bits64 b)

(* Known answers of the xoshiro256** stream, so a change of state layout
   cannot move a seeded result: per seed, the first draw and the MD5 of
   the first 1000 [bits64] draws (little-endian bytes) from a fresh
   generator, from a [split] child and from its advanced parent, and from
   a [copy] taken after 7 draws, which must replay the original. *)
let rng_known_answers =
  [
    ( 0, 0x99ec5f36cb75f2b4L, "b34ee695597d11c88ea3910cc21566da",
      "827e3013df2f95bcd98426bfe8dc8d95", "7058ca3ac1bf8819d6c927d122abbaba",
      "41db63dc295819cdfda969d255608166" );
    ( 1, 0xb3f2af6d0fc710c5L, "7ff22290f3dbf3da9e9318e0a746a0bb",
      "cb64deaee249931b00fa32c8953c6dfe", "62fb10b79cc5925b1761dce2514e5b54",
      "9418f98c4ea891ed0894c96dab90dddc" );
    ( 2002, 0x6c73c151722797eaL, "b24b709c1f52c8e4e20e2c9cf24faac8",
      "0163114af9bf12aefaff379d421b4389", "f60bc028371320904ec737d7ee94d6a3",
      "ea89cfd8a1bb1f795d65f93db03a03c0" );
    ( max_int, 0x6a2df487bd4abde8L, "fc2eb2ad91e861e2af5cb335aa57afde",
      "10ad8e38accc075be4b4789f92e400c7", "77b431bcf4dd0cc3649437b4182aaa6c",
      "457da8247a32607bec9e4cf5e1c1f0fb" );
  ]

let test_rng_known_answers () =
  let digest rng =
    let b = Buffer.create 8000 in
    for _ = 1 to 1000 do
      Buffer.add_int64_le b (Prob.Rng.bits64 rng)
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (seed, first, fresh, child, parent, copied) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      check bool_t (name "first draw") true
        (Prob.Rng.bits64 (Prob.Rng.create ~seed) = first);
      check Alcotest.string (name "fresh") fresh
        (digest (Prob.Rng.create ~seed));
      let p = Prob.Rng.create ~seed in
      let c = Prob.Rng.split p in
      check Alcotest.string (name "split child") child (digest c);
      check Alcotest.string (name "split parent") parent (digest p);
      let q = Prob.Rng.create ~seed in
      for _ = 1 to 7 do
        ignore (Prob.Rng.bits64 q)
      done;
      let r = Prob.Rng.copy q in
      check Alcotest.string (name "copy") copied (digest r);
      check Alcotest.string (name "original after copy") copied (digest q))
    rng_known_answers

(* The state is unboxed: [int] allocates nothing, and [unit_float]
   allocates only its boxed float result (2 words). *)
let test_rng_draws_allocate_nothing () =
  let rng = Prob.Rng.create ~seed:11 in
  Testutil.assert_no_minor_alloc "Rng.int" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Prob.Rng.int rng 1000))
      done);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Prob.Rng.unit_float rng))
  done;
  let words = Gc.minor_words () -. before in
  if words > 20_000.0 then
    Alcotest.failf "Rng.unit_float allocated %.0f words over 10000 calls" words

let test_rng_int_bounds () =
  let rng = Prob.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prob.Rng.int rng 7 in
    check bool_t "in range" true (v >= 0 && v < 7)
  done;
  match Prob.Rng.int rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 accepted"

let test_rng_int_uniformity () =
  let rng = Prob.Rng.create ~seed:17 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prob.Rng.int rng 5 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun cnt ->
      let freq = float_of_int cnt /. float_of_int n in
      check bool_t "roughly uniform" true (abs_float (freq -. 0.2) < 0.01))
    counts

let test_rng_unit_float_range () =
  let rng = Prob.Rng.create ~seed:19 in
  for _ = 1 to 1000 do
    let u = Prob.Rng.unit_float rng in
    check bool_t "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Prob.Rng.create ~seed:23 in
  let acc = Prob.Stats.Acc.create () in
  for _ = 1 to 50_000 do
    Prob.Stats.Acc.add acc (Prob.Rng.exponential rng ~rate:2.0)
  done;
  check bool_t "mean ~ 1/2" true
    (abs_float (Prob.Stats.Acc.mean acc -. 0.5) < 0.02)

let test_rng_normal_moments () =
  let rng = Prob.Rng.create ~seed:29 in
  let acc = Prob.Stats.Acc.create () in
  for _ = 1 to 50_000 do
    Prob.Stats.Acc.add acc (Prob.Rng.normal rng)
  done;
  let s = Prob.Stats.Acc.summary acc in
  check bool_t "mean ~ 0" true (abs_float s.Prob.Stats.mean < 0.03);
  check bool_t "var ~ 1" true (abs_float (s.Prob.Stats.variance -. 1.0) < 0.05)

let test_rng_gamma_mean () =
  let rng = Prob.Rng.create ~seed:31 in
  List.iter
    (fun shape ->
      let acc = Prob.Stats.Acc.create () in
      for _ = 1 to 30_000 do
        Prob.Stats.Acc.add acc (Prob.Rng.gamma rng ~shape)
      done;
      check bool_t
        (Printf.sprintf "gamma mean shape=%.2f" shape)
        true
        (abs_float (Prob.Stats.Acc.mean acc -. shape) < 0.1 *. Stdlib.max 1.0 shape))
    [ 0.5; 1.0; 3.0 ]

let test_rng_poisson_mean () =
  let rng = Prob.Rng.create ~seed:37 in
  let acc = Prob.Stats.Acc.create () in
  for _ = 1 to 30_000 do
    Prob.Stats.Acc.add acc (float_of_int (Prob.Rng.poisson rng ~mean:4.0))
  done;
  check bool_t "poisson mean" true (abs_float (Prob.Stats.Acc.mean acc -. 4.0) < 0.1)

let test_rng_shuffle_permutes () =
  let rng = Prob.Rng.create ~seed:41 in
  let a = Array.init 20 (fun i -> i) in
  Prob.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation"
    (Array.init 20 (fun i -> i))
    sorted

(* -------------------- Dist -------------------- *)

let test_dist_generators_are_distributions () =
  let rng = Prob.Rng.create ~seed:43 in
  List.iter
    (fun (name, v) ->
      check bool_t name true (Prob.Dist.is_distribution v))
    [
      "uniform", Prob.Dist.uniform 7;
      "zipf", Prob.Dist.zipf ~s:1.1 10;
      "geometric", Prob.Dist.geometric ~ratio:0.5 8;
      "point mass", Prob.Dist.point_mass ~eps:0.001 6 2;
      "dirichlet", Prob.Dist.dirichlet rng ~alpha:0.5 9;
      "simplex", Prob.Dist.uniform_simplex rng 5;
    ]

let test_dist_zipf_ordering () =
  let v = Prob.Dist.zipf ~s:1.0 5 in
  for j = 0 to 3 do
    check bool_t "non-increasing" true (v.(j) >= v.(j + 1))
  done;
  (* s = 0 is uniform. *)
  let u = Prob.Dist.zipf ~s:0.0 4 in
  Array.iter (fun x -> check (float_t 1e-12) "uniform" 0.25 x) u

let test_dist_point_mass () =
  let v = Prob.Dist.point_mass ~eps:0.01 5 3 in
  check (float_t 1e-12) "peak" 0.96 v.(3);
  check (float_t 1e-12) "rest" 0.01 v.(0)

let test_dist_sample_frequencies () =
  let rng = Prob.Rng.create ~seed:47 in
  let v = [| 0.5; 0.3; 0.2 |] in
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let j = Prob.Dist.sample rng v in
    counts.(j) <- counts.(j) + 1
  done;
  Array.iteri
    (fun j cnt ->
      check bool_t "frequency matches" true
        (abs_float ((float_of_int cnt /. float_of_int n) -. v.(j)) < 0.01))
    counts

let test_dist_entropy () =
  check (float_t 1e-9) "uniform 4" 2.0 (Prob.Dist.entropy (Prob.Dist.uniform 4));
  check (float_t 1e-9) "point" 0.0 (Prob.Dist.entropy [| 1.0; 0.0 |])

let test_dist_total_variation () =
  check (float_t 1e-12) "identical" 0.0
    (Prob.Dist.total_variation [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  check (float_t 1e-12) "disjoint" 1.0
    (Prob.Dist.total_variation [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_dist_perturb_keeps_distribution () =
  let rng = Prob.Rng.create ~seed:53 in
  let v = Prob.Dist.zipf ~s:1.0 6 in
  let w = Prob.Dist.perturb rng ~eps:0.1 v in
  check bool_t "still a distribution" true (Prob.Dist.is_distribution w);
  check bool_t "close to original" true (Prob.Dist.total_variation v w < 0.1)

let prop_normalize_sums_to_one =
  QCheck.Test.make ~name:"normalize sums to 1" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 20) (QCheck.int_range 1 1000))
    (fun l ->
      let v = Prob.Dist.normalize (Array.of_list (List.map float_of_int l)) in
      abs_float (Array.fold_left ( +. ) 0.0 v -. 1.0) < 1e-9)

let prop_dirichlet_valid =
  QCheck.Test.make ~name:"dirichlet always valid" ~count:100
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 1 1000000))
    (fun (c, seed) ->
      let rng = Prob.Rng.create ~seed in
      Prob.Dist.is_distribution (Prob.Dist.dirichlet rng ~alpha:0.3 c))

(* -------------------- Stats -------------------- *)

let test_stats_summary () =
  let s = Prob.Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check int_t "n" 4 s.Prob.Stats.n;
  check (float_t 1e-12) "mean" 2.5 s.Prob.Stats.mean;
  check (float_t 1e-9) "variance" (5.0 /. 3.0) s.Prob.Stats.variance;
  check (float_t 1e-12) "min" 1.0 s.Prob.Stats.min;
  check (float_t 1e-12) "max" 4.0 s.Prob.Stats.max

let test_stats_acc_matches_summarize () =
  let xs = [| 3.1; -2.0; 7.7; 0.0; 5.5; 5.5 |] in
  let acc = Prob.Stats.Acc.create () in
  Array.iter (Prob.Stats.Acc.add acc) xs;
  let a = Prob.Stats.Acc.summary acc and b = Prob.Stats.summarize xs in
  check (float_t 1e-9) "mean" b.Prob.Stats.mean a.Prob.Stats.mean;
  check (float_t 1e-9) "variance" b.Prob.Stats.variance a.Prob.Stats.variance

let test_stats_quantiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check (float_t 1e-12) "median" 2.5 (Prob.Stats.median xs);
  check (float_t 1e-12) "q0" 1.0 (Prob.Stats.quantile xs 0.0);
  check (float_t 1e-12) "q1" 4.0 (Prob.Stats.quantile xs 1.0)

let test_stats_histogram () =
  let h = Prob.Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; -1.0; 9.0 |] in
  check Alcotest.(array int) "counts" [| 2; 2; 0; 2 |] h

let test_stats_single_sample () =
  let s = Prob.Stats.summarize [| 5.0 |] in
  check (float_t 1e-12) "variance 0" 0.0 s.Prob.Stats.variance

(* -------------------- Sampling (alias method) -------------------- *)

let test_alias_matches_weights () =
  let rng = Prob.Rng.create ~seed:59 in
  let weights = [| 5.0; 3.0; 2.0; 0.0; 10.0 |] in
  let table = Prob.Sampling.create weights in
  check int_t "size" 5 (Prob.Sampling.size table);
  let counts = Array.make 5 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let j = Prob.Sampling.draw table rng in
    counts.(j) <- counts.(j) + 1
  done;
  check int_t "zero weight never drawn" 0 counts.(3);
  Array.iteri
    (fun j cnt ->
      let expected = weights.(j) /. 20.0 in
      check bool_t
        (Printf.sprintf "frequency %d" j)
        true
        (abs_float ((float_of_int cnt /. float_of_int n) -. expected) < 0.01))
    counts

let test_alias_probability_reconstruction () =
  let table = Prob.Sampling.create [| 1.0; 3.0 |] in
  check (float_t 1e-12) "p0" 0.25 (Prob.Sampling.probability table 0);
  check (float_t 1e-12) "p1" 0.75 (Prob.Sampling.probability table 1)

let test_alias_rejects_bad_input () =
  (match Prob.Sampling.create [||] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty accepted");
  match Prob.Sampling.create [| 0.0; 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-zero accepted"

(* -------------------- Estimate -------------------- *)

let test_estimate_row_mle () =
  let row = Prob.Estimate.row_mle ~alpha:0.0 [| 3; 1; 0 |] in
  Alcotest.(check (float 1e-12)) "mle 0" 0.75 row.(0);
  Alcotest.(check (float 1e-12)) "mle 1" 0.25 row.(1);
  Alcotest.(check (float 1e-12)) "mle 2" 0.0 row.(2);
  (* add-one smoothing: (c_j + 1) / (n + c) *)
  let sm = Prob.Estimate.row_mle [| 3; 1; 0 |] in
  Alcotest.(check (float 1e-12)) "smoothed 0" (4.0 /. 7.0) sm.(0);
  Alcotest.(check (float 1e-12)) "smoothed 2" (1.0 /. 7.0) sm.(2);
  Alcotest.(check (float 1e-9)) "sums to one" 1.0
    (Array.fold_left ( +. ) 0.0 sm);
  (match Prob.Estimate.row_mle ~alpha:0.0 [| 0; 0 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "all-zero plain MLE accepted");
  match Prob.Estimate.row_mle [| 1; -2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted"

let test_estimate_dkw () =
  let e = Prob.Estimate.dkw_eps ~n:100 ~confidence:0.95 in
  Alcotest.(check (float 1e-12)) "dkw formula"
    (sqrt (log (2.0 /. 0.05) /. 200.0)) e;
  (* shrinks with n, grows with confidence, capped at 1 *)
  if Prob.Estimate.dkw_eps ~n:400 ~confidence:0.95 >= e then
    Alcotest.fail "radius not shrinking in n";
  if Prob.Estimate.dkw_eps ~n:100 ~confidence:0.99 <= e then
    Alcotest.fail "radius not growing in confidence";
  Alcotest.(check (float 0.0)) "n=0 knows nothing" 1.0
    (Prob.Estimate.dkw_eps ~n:0 ~confidence:0.95);
  match Prob.Estimate.dkw_eps ~n:10 ~confidence:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "confidence = 1 accepted"

let test_estimate_rows () =
  let rows =
    Prob.Estimate.estimate_rows ~confidence:0.9
      [| [| 8; 2 |]; [| 0; 0 |] |]
  in
  Alcotest.(check int) "n from counts" 10 rows.(0).Prob.Estimate.n;
  Alcotest.(check int) "empty row n" 0 rows.(1).Prob.Estimate.n;
  Alcotest.(check (float 0.0)) "empty row radius" 1.0
    rows.(1).Prob.Estimate.eps;
  Array.iter
    (fun r ->
       Alcotest.(check (float 1e-9)) "dist normalized" 1.0
         (Array.fold_left ( +. ) 0.0 r.Prob.Estimate.dist))
    rows

let () =
  Alcotest.run "prob"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "unit float" `Quick test_rng_unit_float_range;
          Alcotest.test_case "exponential" `Slow test_rng_exponential_mean;
          Alcotest.test_case "normal" `Slow test_rng_normal_moments;
          Alcotest.test_case "gamma" `Slow test_rng_gamma_mean;
          Alcotest.test_case "poisson" `Slow test_rng_poisson_mean;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "dist",
        [
          Alcotest.test_case "generators valid" `Quick
            test_dist_generators_are_distributions;
          Alcotest.test_case "zipf" `Quick test_dist_zipf_ordering;
          Alcotest.test_case "point mass" `Quick test_dist_point_mass;
          Alcotest.test_case "sample frequencies" `Slow
            test_dist_sample_frequencies;
          Alcotest.test_case "entropy" `Quick test_dist_entropy;
          Alcotest.test_case "total variation" `Quick test_dist_total_variation;
          Alcotest.test_case "perturb" `Quick test_dist_perturb_keeps_distribution;
          qt prop_normalize_sums_to_one;
          qt prop_dirichlet_valid;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "acc = summarize" `Quick
            test_stats_acc_matches_summarize;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "single sample" `Quick test_stats_single_sample;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "alias frequencies" `Slow test_alias_matches_weights;
          Alcotest.test_case "probability" `Quick
            test_alias_probability_reconstruction;
          Alcotest.test_case "bad input" `Quick test_alias_rejects_bad_input;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "row mle" `Quick test_estimate_row_mle;
          Alcotest.test_case "dkw radius" `Quick test_estimate_dkw;
          Alcotest.test_case "estimate rows" `Quick test_estimate_rows;
        ] );
    ]
