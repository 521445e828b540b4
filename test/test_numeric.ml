(* Unit and property tests for the numeric substrate: Bigint, Rational,
   Convex, Lemma_bounds. *)

module B = Numeric.Bigint
module Q = Numeric.Rational

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let float_t = Alcotest.float 1e-9

(* -------------------- Bigint unit tests -------------------- *)

let test_bigint_of_to_int () =
  List.iter
    (fun n ->
      check (Alcotest.option int_t) (string_of_int n) (Some n)
        (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; max_int; min_int + 1; 1 lsl 40; -(1 lsl 40) ]

let test_bigint_min_int () =
  check string_t "min_int" (string_of_int min_int) (B.to_string (B.of_int min_int))

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> check string_t s s (B.to_string (B.of_string s)))
    [
      "0";
      "1";
      "-1";
      "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "1000000000000000000000000000000000000000000";
    ]

let test_bigint_add_sub () =
  let a = B.of_string "123456789123456789123456789" in
  let b = B.of_string "987654321987654321987654321" in
  check string_t "add" "1111111111111111111111111110" B.(to_string (a + b));
  check string_t "sub" "-864197532864197532864197532" B.(to_string (a - b));
  check bool_t "a + b - b = a" true (B.equal a B.(a + b - b))

let test_bigint_mul () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  check string_t "mul" "121932631356500531347203169112635269"
    B.(to_string (a * b))

let test_bigint_divmod () =
  let a = B.of_string "1000000000000000000000000000007" in
  let b = B.of_string "123456789" in
  let q, r = B.divmod a b in
  check bool_t "a = q*b + r" true B.(equal a ((q * b) + r));
  check bool_t "0 <= r < b" true (B.sign r >= 0 && B.compare r b < 0)

let test_bigint_divmod_signs () =
  (* Truncated division: remainder carries the dividend's sign. *)
  let pairs = [ 7, 3; -7, 3; 7, -3; -7, -3; 0, 5; 100, 7; -100, 7 ] in
  List.iter
    (fun (a, b) ->
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      check int_t
        (Printf.sprintf "%d / %d" a b)
        (a / b) (B.to_int_exn q);
      check int_t (Printf.sprintf "%d mod %d" a b) (a mod b) (B.to_int_exn r))
    pairs

let test_bigint_gcd () =
  check int_t "gcd 12 18" 6 (B.to_int_exn (B.gcd (B.of_int 12) (B.of_int 18)));
  check int_t "gcd 0 5" 5 (B.to_int_exn (B.gcd B.zero (B.of_int 5)));
  check int_t "gcd -12 18" 6
    (B.to_int_exn (B.gcd (B.of_int (-12)) (B.of_int 18)))

let test_bigint_pow () =
  check string_t "2^100" "1267650600228229401496703205376"
    (B.to_string (B.pow B.two 100));
  check int_t "x^0" 1 (B.to_int_exn (B.pow (B.of_int 17) 0))

let test_bigint_bit_length () =
  check int_t "bitlen 0" 0 (B.bit_length B.zero);
  check int_t "bitlen 1" 1 (B.bit_length B.one);
  check int_t "bitlen 255" 8 (B.bit_length (B.of_int 255));
  check int_t "bitlen 256" 9 (B.bit_length (B.of_int 256));
  check int_t "bitlen 2^100" 101 (B.bit_length (B.pow B.two 100))

let test_bigint_to_float () =
  check float_t "to_float" 1e15 (B.to_float (B.of_string "1000000000000000"));
  check float_t "neg" (-42.0) (B.to_float (B.of_int (-42)))

(* -------------------- Bigint properties -------------------- *)

let arb_small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

let prop_ring_add =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      B.to_int_exn B.(of_int a + of_int b) = a + b)

let prop_ring_mul =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      B.to_int_exn B.(of_int a * of_int b) = a * b)

let prop_divmod =
  QCheck.Test.make ~name:"bigint divmod identity" ~count:500
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      B.to_int_exn q = a / b && B.to_int_exn r = a mod b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) (QCheck.int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      QCheck.assume (s <> "");
      let canonical =
        let t = B.to_string (B.of_string s) in
        t
      in
      (* Stripping leading zeros must match. *)
      let stripped =
        let rec strip i =
          if i < String.length s - 1 && s.[i] = '0' then strip (i + 1)
          else String.sub s i (String.length s - i)
        in
        strip 0
      in
      canonical = stripped)

let prop_mul_big =
  QCheck.Test.make ~name:"bigint (a*b)/b = a for big operands" ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_range 0 9))
       (QCheck.list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_range 0 9)))
    (fun (da, db) ->
      let s l = String.concat "" (List.map string_of_int l) in
      let a = B.of_string (s da) and b = B.of_string (s db) in
      QCheck.assume (not (B.is_zero b));
      B.equal a (B.div (B.mul a b) b))

(* -------------------- Rational tests -------------------- *)

let q = Q.of_ints

let test_rational_normalization () =
  check bool_t "2/4 = 1/2" true (Q.equal (q 2 4) (q 1 2));
  check bool_t "-2/-4 = 1/2" true (Q.equal (q (-2) (-4)) (q 1 2));
  check bool_t "2/-4 = -1/2" true (Q.equal (q 2 (-4)) (q (-1) 2));
  check string_t "to_string" "1/2" (Q.to_string (q 3 6));
  check string_t "integer" "7" (Q.to_string (q 14 2))

let test_rational_arith () =
  check bool_t "1/3 + 1/6 = 1/2" true (Q.equal (Q.add (q 1 3) (q 1 6)) (q 1 2));
  check bool_t "1/3 * 3/5 = 1/5" true (Q.equal (Q.mul (q 1 3) (q 3 5)) (q 1 5));
  check bool_t "(1/3) / (2/3) = 1/2" true
    (Q.equal (Q.div (q 1 3) (q 2 3)) (q 1 2));
  check bool_t "pow" true (Q.equal (Q.pow (q 2 3) 3) (q 8 27));
  check bool_t "pow neg" true (Q.equal (Q.pow (q 2 3) (-2)) (q 9 4))

let test_rational_compare () =
  check bool_t "1/3 < 1/2" true (Q.compare (q 1 3) (q 1 2) < 0);
  check bool_t "-1/2 < 1/3" true (Q.compare (q (-1) 2) (q 1 3) < 0);
  check bool_t "min" true (Q.equal (Q.min (q 1 3) (q 1 2)) (q 1 3))

let test_rational_of_string () =
  check bool_t "a/b" true (Q.equal (Q.of_string "3/4") (q 3 4));
  check bool_t "decimal" true (Q.equal (Q.of_string "0.25") (q 1 4));
  check bool_t "neg decimal" true (Q.equal (Q.of_string "-1.5") (q (-3) 2));
  check bool_t "int" true (Q.equal (Q.of_string "17") (Q.of_int 17))

let test_rational_to_float () =
  check float_t "1/2" 0.5 (Q.to_float (q 1 2));
  check float_t "317/49" (317.0 /. 49.0) (Q.to_float (q 317 49))

(* A finite float as m·2^e with m an integer. *)
let dyadic f =
  let fr, e = Float.frexp f in
  (B.of_int (Int64.to_int (Int64.of_float (Float.ldexp fr 53))), e - 53)

let shift m k = B.mul m (B.pow B.two k)

(* The midpoint of two finite floats, as a dyadic. *)
let midpoint f g =
  let (mf, ef), (mg, eg) = (dyadic f, dyadic g) in
  let e = min ef eg in
  (B.add (shift mf (ef - e)) (shift mg (eg - e)), e - 1)

(* [x] against m·2^e, by cross-multiplication (no gcd). *)
let compare_dyadic x (m, e) =
  let a = Q.num x and b = Q.den x in
  if e >= 0 then B.compare a (B.mul (shift m e) b)
  else B.compare (shift a (-e)) (B.mul m b)

(* [f] is a nearest float to [x]: x lies between the midpoints to its
   finite neighbours, and an infinite [f] means |x| reaches
   2^1024 − 2^970, where rounding to nearest overflows. *)
let nearest x f =
  let side g sign =
    (not (Float.is_finite g)) || sign * compare_dyadic x (midpoint g f) >= 0
  in
  if Float.is_finite f then side (Float.pred f) 1 && side (Float.succ f) (-1)
  else
    Q.sign x = int_of_float (Float.copy_sign 1.0 f)
    && Q.compare (Q.abs x)
         (Q.of_bigint (B.sub (B.pow B.two 1024) (B.pow B.two 970)))
       >= 0

(* A non-negative integer of [limbs] random 30-bit limbs. *)
let random_limbs rng limbs =
  let x = ref B.zero in
  for _ = 1 to limbs do
    x := B.add (shift !x 30) (B.of_int (Prob.Rng.int rng (1 lsl 30)))
  done;
  !x

let test_to_float_correctly_rounded () =
  let rng = Prob.Rng.create ~seed:5309 in
  for case = 1 to 1000 do
    let num = random_limbs rng (2 + Prob.Rng.int rng 4) in
    let den = B.add B.one (random_limbs rng (2 + Prob.Rng.int rng 4)) in
    (* one case in ten scaled by up to 2^±1100: subnormals and overflow *)
    let scale = if case mod 10 = 0 then Prob.Rng.int rng 2201 - 1100 else 0 in
    let num, den =
      if scale >= 0 then (shift num scale, den) else (num, shift den (-scale))
    in
    let num = if case mod 3 = 0 then B.neg num else num in
    let x = Q.make num den in
    let f = Q.to_float x in
    if not (nearest x f) then
      Alcotest.failf "%s rounds to %h" (Q.to_string x) f;
    let n = B.to_float num in
    if not (nearest (Q.of_bigint num) n) then
      Alcotest.failf "Bigint %s rounds to %h" (B.to_string num) n
  done;
  let two53 = B.pow B.two 53 in
  check bool_t "(2^53+1)/2^53 ties to even: 1.0" true
    (Q.to_float (Q.make (B.add two53 B.one) two53) = 1.0);
  check bool_t "2^53+1 ties to even: 2^53" true
    (B.to_float (B.add two53 B.one) = 0x1p53);
  check bool_t "2^53+3 ties to even: 2^53+4" true
    (B.to_float (B.add two53 (B.of_int 3)) = 0x1.0000000000002p53);
  let tiny = Q.make B.one (B.mul (B.of_int 3) (B.pow B.two 1070)) in
  check bool_t "1/(3*2^1070) is the subnormal 5*2^-1074" true
    (Q.to_float tiny = 0x0.0000000000005p-1022);
  let x = Q.of_string "10656303392921628207114566/82040592654758123303375445" in
  check bool_t "a quotient the limb-wise division missed by 1.29 ulp" true
    (nearest x (Q.to_float x))

let test_rational_division_by_zero () =
  Alcotest.check_raises "make x 0" Division_by_zero (fun () ->
      ignore (Q.make Numeric.Bigint.one Numeric.Bigint.zero));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Q.inv Q.zero))

let arb_rat =
  QCheck.map
    (fun (a, b) -> q a (if b = 0 then 1 else b))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-1000) 1000))

let prop_rat_add_comm =
  QCheck.Test.make ~name:"rational addition commutes" ~count:300
    (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      Q.equal (Q.add a b) (Q.add b a))

let prop_rat_distrib =
  QCheck.Test.make ~name:"rational distributivity" ~count:300
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_rat_inverse =
  QCheck.Test.make ~name:"rational multiplicative inverse" ~count:300 arb_rat
    (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal (Q.mul a (Q.inv a)) Q.one)

let prop_rat_float_consistent =
  QCheck.Test.make ~name:"rational compare consistent with floats" ~count:300
    (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      let cf = compare (Q.to_float a) (Q.to_float b) in
      let cq = Q.compare a b in
      (* Floats at this magnitude are exact enough for consistency of
         strict orderings. *)
      (cq = 0 && abs_float (Q.to_float a -. Q.to_float b) < 1e-12)
      || (cq < 0 && cf <= 0)
      || (cq > 0 && cf >= 0))

(* -------------------- Convex -------------------- *)

let test_golden_section () =
  let x, v =
    Numeric.Convex.golden_section_min
      (fun x -> (x -. 2.0) ** 2.0 +. 1.0)
      0.0 5.0 ~tol:1e-9
  in
  check (Alcotest.float 1e-5) "argmin" 2.0 x;
  check (Alcotest.float 1e-5) "min" 1.0 v

let test_int_argmin () =
  let f x = (x - 7) * (x - 7) in
  let x, v = Numeric.Convex.int_argmin (fun x -> float_of_int (f x)) 0 20 in
  check int_t "argmin" 7 x;
  check float_t "min" 0.0 v

let test_ternary_int_min () =
  let f x = float_of_int ((x - 13) * (x - 13)) in
  let x, _ = Numeric.Convex.ternary_int_min f 0 100 in
  check int_t "argmin" 13 x

let test_convex_samples () =
  check bool_t "convex" true
    (Numeric.Convex.is_convex_samples [| 4.0; 1.0; 0.0; 1.0; 4.0 |]);
  check bool_t "not convex" false
    (Numeric.Convex.is_convex_samples [| 0.0; 2.0; 1.0; 5.0 |])

let test_amgm () =
  check float_t "amgm [1;1]" 1.0 (Numeric.Convex.amgm_upper [ 1.0; 1.0 ]);
  check bool_t "bound holds" true
    (Numeric.Convex.amgm_upper [ 0.3; 0.7 ] >= 0.3 *. 0.7)

let test_e_constant () =
  check (Alcotest.float 1e-12) "e/(e-1)" (exp 1.0 /. (exp 1.0 -. 1.0))
    Numeric.Convex.e_over_e_minus_1

(* -------------------- Lemma_bounds -------------------- *)

let test_f_lemma31_max_formula () =
  (* The exact maximum value must match direct evaluation at the claimed
     maximizer (x = 1/2, y = 2c/3). *)
  List.iter
    (fun c ->
      let x = q 1 2 and y = q (2 * c) 3 in
      let direct = Numeric.Lemma_bounds.f_lemma31_exact ~c x y in
      check bool_t
        (Printf.sprintf "c=%d" c)
        true
        (Q.equal direct (Numeric.Lemma_bounds.f_lemma31_max ~c)))
    [ 3; 6; 9; 12; 30 ]

let test_f_lemma31_maximizer_unique () =
  (* Grid check: no other grid point beats f(1/2, 2c/3). *)
  let c = 9 in
  let best = Q.to_float (Numeric.Lemma_bounds.f_lemma31_max ~c) in
  let worse = ref true in
  for xi = 0 to 20 do
    for yi = 0 to 20 do
      let x = float_of_int xi /. 20.0 in
      let y = float_of_int yi *. float_of_int c /. 20.0 in
      let v = Numeric.Lemma_bounds.f_lemma31 ~c x y in
      if v > best +. 1e-9 then worse := false
    done
  done;
  check bool_t "global max on grid" true !worse

let test_alphas_monotone () =
  List.iter
    (fun (m, d) ->
      let a = Numeric.Lemma_bounds.alphas ~m ~d in
      let arr = Array.of_list a in
      check int_t "length" (d - 1) (Array.length arr);
      check (Alcotest.float 1e-12) "alpha1"
        (float_of_int m /. float_of_int (m + 1))
        arr.(0);
      Array.iteri
        (fun i alpha ->
          check bool_t "in (0,1)" true (alpha > 0.0 && alpha < 1.0);
          if i > 0 then
            check bool_t "increasing" true (alpha > arr.(i - 1)))
        arr)
    [ 2, 2; 2, 5; 3, 4; 5, 6 ]

let test_bs_increasing () =
  let b = Numeric.Lemma_bounds.bs ~m:2 ~d:4 ~c:100 in
  check int_t "length" 5 (Array.length b);
  check float_t "b0" 0.0 b.(0);
  check float_t "bd" 100.0 b.(4);
  Array.iteri (fun i x -> if i > 0 then check bool_t "monotone" true (x > b.(i - 1))) b

let test_group_fractions_sum () =
  List.iter
    (fun (m, d) ->
      let fr = Numeric.Lemma_bounds.optimal_group_fractions ~m ~d in
      let s = Array.fold_left ( +. ) 0.0 fr in
      check (Alcotest.float 1e-9) "sums to 1" 1.0 s;
      Array.iter (fun f -> check bool_t "positive" true (f > 0.0)) fr)
    [ 2, 2; 2, 3; 3, 3; 4, 5 ]

let test_xs_lemma34_sum () =
  let xs = Numeric.Lemma_bounds.xs_lemma34 ~m:2 ~d:3 in
  check (Alcotest.float 1e-9) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 xs)

let test_lemma34_bound_sane () =
  (* The bound is below c and above 0 for sensible parameters. *)
  List.iter
    (fun (m, d, c) ->
      let v = Numeric.Lemma_bounds.lemma34_bound ~m ~d ~c in
      check bool_t "0 < bound < c" true (v > 0.0 && v < float_of_int c))
    [ 2, 2, 30; 2, 3, 60; 3, 2, 30 ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "of/to int" `Quick test_bigint_of_to_int;
          Alcotest.test_case "min_int" `Quick test_bigint_min_int;
          Alcotest.test_case "string roundtrip" `Quick
            test_bigint_string_roundtrip;
          Alcotest.test_case "add/sub" `Quick test_bigint_add_sub;
          Alcotest.test_case "mul" `Quick test_bigint_mul;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "divmod signs" `Quick test_bigint_divmod_signs;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "pow" `Quick test_bigint_pow;
          Alcotest.test_case "bit_length" `Quick test_bigint_bit_length;
          Alcotest.test_case "to_float" `Quick test_bigint_to_float;
          qt prop_ring_add;
          qt prop_ring_mul;
          qt prop_divmod;
          qt prop_string_roundtrip;
          qt prop_mul_big;
        ] );
      ( "rational",
        [
          Alcotest.test_case "normalization" `Quick test_rational_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rational_arith;
          Alcotest.test_case "compare" `Quick test_rational_compare;
          Alcotest.test_case "of_string" `Quick test_rational_of_string;
          Alcotest.test_case "to_float" `Quick test_rational_to_float;
          Alcotest.test_case "to_float correctly rounded" `Quick
            test_to_float_correctly_rounded;
          Alcotest.test_case "division by zero" `Quick
            test_rational_division_by_zero;
          qt prop_rat_add_comm;
          qt prop_rat_distrib;
          qt prop_rat_inverse;
          qt prop_rat_float_consistent;
        ] );
      ( "convex",
        [
          Alcotest.test_case "golden section" `Quick test_golden_section;
          Alcotest.test_case "int argmin" `Quick test_int_argmin;
          Alcotest.test_case "ternary int min" `Quick test_ternary_int_min;
          Alcotest.test_case "convex samples" `Quick test_convex_samples;
          Alcotest.test_case "amgm" `Quick test_amgm;
          Alcotest.test_case "e/(e-1)" `Quick test_e_constant;
        ] );
      ( "lemma_bounds",
        [
          Alcotest.test_case "f max formula" `Quick test_f_lemma31_max_formula;
          Alcotest.test_case "f maximizer grid" `Quick
            test_f_lemma31_maximizer_unique;
          Alcotest.test_case "alphas monotone" `Quick test_alphas_monotone;
          Alcotest.test_case "bs increasing" `Quick test_bs_increasing;
          Alcotest.test_case "group fractions" `Quick test_group_fractions_sum;
          Alcotest.test_case "xs sum" `Quick test_xs_lemma34_sum;
          Alcotest.test_case "lemma 3.4 bound" `Quick test_lemma34_bound_sane;
        ] );
    ]
