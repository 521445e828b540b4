(* Unit and property tests for the core library's data types and solvers:
   Instance, Objective, Strategy, Order_dp, Optimal, Bounds, Solver. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

let sample_instance () =
  Instance.create ~d:2
    [| [| 0.5; 0.3; 0.2 |]; [| 0.1; 0.1; 0.8 |] |]

(* -------------------- Instance -------------------- *)

let test_instance_create_valid () =
  let t = sample_instance () in
  check int_t "m" 2 t.Instance.m;
  check int_t "c" 3 t.Instance.c;
  check int_t "d" 2 t.Instance.d

let test_instance_create_invalid () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "bad row sum" (fun () ->
      Instance.create ~d:1 [| [| 0.5; 0.2 |] |]);
  expect_invalid "negative prob" (fun () ->
      Instance.create ~d:1 [| [| 1.5; -0.5 |] |]);
  expect_invalid "d too large" (fun () ->
      Instance.create ~d:3 [| [| 0.5; 0.5 |] |]);
  expect_invalid "d zero" (fun () ->
      Instance.create ~d:0 [| [| 0.5; 0.5 |] |]);
  expect_invalid "ragged" (fun () ->
      Instance.create ~d:1 [| [| 1.0 |]; [| 0.5; 0.5 |] |]);
  expect_invalid "empty" (fun () -> Instance.create ~d:1 [||]);
  expect_invalid "zero row" (fun () ->
      Instance.create ~d:1 [| [| 0.0; 0.0 |] |])

(* One test per rejection path of the hardened validator: the message
   must name the offending row (and cell, for entry-level defects). *)
let test_instance_validate_named_errors () =
  let expect name needle rows =
    match Instance.validate ~d:1 rows with
    | Error msg ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      if not (contains msg needle) then
        Alcotest.failf "%s: message %S does not mention %S" name msg needle
    | Ok () -> Alcotest.failf "%s: expected rejection" name
  in
  expect "NaN entry" "device 1, cell 1: probability is NaN"
    [| [| 0.5; 0.5 |]; [| 0.5; Float.nan |] |];
  expect "+inf entry" "device 0, cell 0: probability is +infinity"
    [| [| Float.infinity; 0.0 |]; [| 0.5; 0.5 |] |];
  expect "-inf entry" "device 0, cell 1: probability is -infinity"
    [| [| 0.5; Float.neg_infinity |] |];
  expect "negative entry" "device 0, cell 1: probability is negative"
    [| [| 1.5; -0.5 |] |];
  (* Finite entries whose sum overflows: the row-sum finiteness check,
     not the entry check, must catch this. *)
  expect "row sum overflows" "device 0: row sum is not finite"
    [| [| 1e308; 1e308 |] |];
  expect "row sum off" "device 0: row sums to"
    [| [| 0.5; 0.2 |] |];
  expect "zero row" "device 0: row has no mass"
    [| [| 0.0; 0.0 |] |];
  expect "ragged row" "device 1: row has 1 cells, expected 2"
    [| [| 0.5; 0.5 |]; [| 1.0 |] |]

let test_instance_zero_probabilities_allowed () =
  (* The §4.3 instance needs zeros. *)
  let t = Instance.create ~d:2 [| [| 0.0; 1.0; 0.0 |] |] in
  check int_t "c" 3 t.Instance.c

let test_cell_weight_and_order () =
  let t = sample_instance () in
  check (float_t 1e-12) "w0" 0.6 (Instance.cell_weight t 0);
  check (float_t 1e-12) "w1" 0.4 (Instance.cell_weight t 1);
  check (float_t 1e-12) "w2" 1.0 (Instance.cell_weight t 2);
  check Alcotest.(array int) "order" [| 2; 0; 1 |] (Instance.weight_order t)

let test_weight_order_tie_break () =
  let t = Instance.create ~d:2 [| [| 0.25; 0.25; 0.25; 0.25 |] |] in
  check Alcotest.(array int) "ties by index" [| 0; 1; 2; 3 |]
    (Instance.weight_order t)

let test_instance_with_d () =
  let t = sample_instance () in
  check int_t "with_d" 3 (Instance.with_d t 3).Instance.d;
  (match Instance.with_d t 9 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected failure")

let test_instance_restrict () =
  let t = sample_instance () in
  let sub = Instance.restrict t ~d:1 ~cells:[| 0; 2 |] ~devices:[| 1 |] in
  check int_t "m" 1 sub.Instance.m;
  check int_t "c" 2 sub.Instance.c;
  check (float_t 1e-12) "renormalized" (0.1 /. 0.9) sub.Instance.p.(0).(0);
  check (float_t 1e-12) "renormalized" (0.8 /. 0.9) sub.Instance.p.(0).(1)

let test_instance_serialization_roundtrip () =
  let t = sample_instance () in
  let t' = Instance.of_string (Instance.to_string t) in
  check int_t "m" t.Instance.m t'.Instance.m;
  check int_t "c" t.Instance.c t'.Instance.c;
  check int_t "d" t.Instance.d t'.Instance.d;
  for i = 0 to t.Instance.m - 1 do
    for j = 0 to t.Instance.c - 1 do
      check (float_t 0.0) "prob" t.Instance.p.(i).(j) t'.Instance.p.(i).(j)
    done
  done

let test_instance_of_string_comments () =
  let t = Instance.of_string "# header\n1 2 1\n# row\n0.5 0.5\n" in
  check int_t "c" 2 t.Instance.c

(* Any ASCII whitespace separates tokens: a CRLF file and a
   tab-separated one read like the space-separated form, comments
   included, and the error texts are unchanged. *)
let test_instance_of_string_whitespace () =
  let reference = Instance.to_string (Instance.of_string "1 2 1\n0.5 0.5\n") in
  List.iter
    (fun input ->
      check Alcotest.string (String.escaped input) reference
        (Instance.to_string (Instance.of_string input)))
    [
      "1 2 1\r\n0.5 0.5\r\n";
      "1\t2\t1\n0.5\t0.5\n";
      "# header\r\n\t1 2 1\r\n\t# row\r\n0.5\t 0.5\x0c\n";
    ];
  List.iter
    (fun (input, msg) ->
      match Instance.of_string input with
      | _ -> Alcotest.failf "%S accepted" input
      | exception Invalid_argument m ->
        check Alcotest.string (String.escaped input) ("Instance.of_string: " ^ msg) m)
    [
      ("1\t2\r\n", "missing header");
      ("1 2 x\r\n0.5 0.5\r\n", "bad d");
      ("1\t2\t1\t0.5\r\n", "wrong number of probabilities");
      ("1 2 1\r\n0.5 #0.5\r\n", "bad probability");
    ]

let prop_generators_valid =
  QCheck.Test.make ~name:"random instances validate" ~count:100
    (QCheck.triple (QCheck.int_range 1 5) (QCheck.int_range 1 20)
       (QCheck.int_range 1 999999))
    (fun (m, c, seed) ->
      let rng = Prob.Rng.create ~seed in
      let d = 1 + Prob.Rng.int rng c in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      Instance.validate ~d inst.Instance.p = Ok ())

let prop_zipf_valid =
  QCheck.Test.make ~name:"zipf instances validate" ~count:50
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 2 30))
    (fun (m, c) ->
      let rng = Prob.Rng.create ~seed:(m + (c * 100)) in
      let inst = Instance.random_zipf rng ~s:1.2 ~m ~c ~d:2 in
      Instance.validate ~d:2 inst.Instance.p = Ok ())

(* -------------------- Objective -------------------- *)

let test_objective_success () =
  let probs = [| 0.5; 0.8 |] in
  check (float_t 1e-12) "all" 0.4 (Objective.success Objective.Find_all probs);
  check (float_t 1e-12) "any" 0.9 (Objective.success Objective.Find_any probs);
  check (float_t 1e-12) "at least 1 = any" 0.9
    (Objective.success (Objective.Find_at_least 1) probs);
  check (float_t 1e-12) "at least 2 = all" 0.4
    (Objective.success (Objective.Find_at_least 2) probs)

let test_objective_poisson_binomial () =
  (* P[>= 2 of 3] with p = (0.5, 0.5, 0.5): (3 + 1)/8 = 0.5. *)
  check (float_t 1e-12) "binomial tail" 0.5
    (Objective.success (Objective.Find_at_least 2) [| 0.5; 0.5; 0.5 |])

let test_objective_found_enough () =
  check bool_t "all no" false
    (Objective.found_enough Objective.Find_all ~m:3 ~found:2);
  check bool_t "all yes" true
    (Objective.found_enough Objective.Find_all ~m:3 ~found:3);
  check bool_t "any" true
    (Objective.found_enough Objective.Find_any ~m:3 ~found:1);
  check bool_t "k" true
    (Objective.found_enough (Objective.Find_at_least 2) ~m:3 ~found:2)

let test_objective_of_string () =
  let parses s expected =
    match Objective.of_string s with
    | Ok o ->
      check Alcotest.string ("parse " ^ s) (Objective.to_string expected)
        (Objective.to_string o)
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  parses "all" Objective.Find_all;
  parses " Find-All\n" Objective.Find_all;
  parses "ANY" Objective.Find_any;
  parses "find-any" Objective.Find_any;
  parses "3" (Objective.Find_at_least 3);
  parses " find-3 " (Objective.Find_at_least 3);
  List.iter
    (fun o -> parses (Objective.to_string o) o)
    [ Objective.Find_all; Objective.Find_any; Objective.Find_at_least 7 ];
  List.iter
    (fun s ->
      check
        (Alcotest.result Alcotest.reject Alcotest.string)
        ("reject " ^ s)
        (Error "objective must be all|any|<k>")
        (Result.map ignore (Objective.of_string s)))
    [ "0"; "find-0"; "-2"; "find-"; "some"; ""; "find-all-2" ]

let prop_objective_monotone_in_probs =
  QCheck.Test.make ~name:"success monotone in prefix masses" ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 5)
          (QCheck.map (fun n -> float_of_int n /. 100.0) (QCheck.int_range 0 100)))
       (QCheck.int_range 1 5))
    (fun (ps, k) ->
      let probs = Array.of_list ps in
      let m = Array.length probs in
      QCheck.assume (k <= m);
      let bigger = Array.map (fun p -> Stdlib.min 1.0 (p +. 0.1)) probs in
      List.for_all
        (fun obj ->
          Objective.success obj bigger >= Objective.success obj probs -. 1e-12)
        [ Objective.Find_all; Objective.Find_any; Objective.Find_at_least k ])

let prop_objective_exact_matches_float =
  QCheck.Test.make ~name:"success_exact matches success" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5) (QCheck.int_range 0 100))
    (fun nums ->
      let probs_q =
        Array.of_list (List.map (fun n -> Numeric.Rational.of_ints n 100) nums)
      in
      let probs_f = Array.of_list (List.map (fun n -> float_of_int n /. 100.0) nums) in
      List.for_all
        (fun obj ->
          abs_float
            (Numeric.Rational.to_float (Objective.success_exact obj probs_q)
            -. Objective.success obj probs_f)
          < 1e-9)
        [ Objective.Find_all; Objective.Find_any; Objective.Find_at_least 2 ])

(* -------------------- Strategy -------------------- *)

let test_strategy_create_and_validate () =
  let s = Strategy.create [| [| 2; 0 |]; [| 1 |] |] in
  check int_t "length" 2 (Strategy.length s);
  check Alcotest.(array int) "sorted group" [| 0; 2 |] (Strategy.groups s).(0);
  check bool_t "validates" true (Strategy.validate ~c:3 s = Ok ());
  check bool_t "wrong c" true (Result.is_error (Strategy.validate ~c:4 s))

let test_strategy_create_invalid () =
  (match Strategy.create [| [| 0 |]; [| 0 |] |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "duplicate accepted");
  (match Strategy.create [| [||] |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty group accepted")

(* Pins the compensated-summation float path (prefix masses, Lemma 2.1
   sum, Poisson-binomial tail) to the exact-rational path: on instances
   with small-integer-weight rows, float EP must match rational EP to
   1e-12 per cell, for all three objectives. *)
let prop_expected_paging_matches_exact =
  QCheck.Test.make ~name:"expected_paging matches exact rational path"
    ~count:150
    (QCheck.quad (QCheck.int_range 1 4) (QCheck.int_range 2 9)
       (QCheck.int_range 1 4) (QCheck.int_range 0 1_000_000))
    (fun (m, c, d, seed) ->
      QCheck.assume (d <= c);
      let rng = Prob.Rng.create ~seed in
      let rows_q =
        Array.init m (fun _ ->
            let w = Array.init c (fun _ -> Prob.Rng.int rng 20) in
            if Array.for_all (fun x -> x = 0) w then
              w.(Prob.Rng.int rng c) <- 1;
            let s = Array.fold_left ( + ) 0 w in
            Array.map (fun n -> Numeric.Rational.of_ints n s) w)
      in
      let exact = Instance.Exact.create ~d rows_q in
      let inst = Instance.Exact.to_float exact in
      let order = Array.init c (fun j -> j) in
      for j = c - 1 downto 1 do
        let k = Prob.Rng.int rng (j + 1) in
        let t = order.(j) in
        order.(j) <- order.(k);
        order.(k) <- t
      done;
      let rounds = 1 + Prob.Rng.int rng d in
      let sizes = Array.make rounds 1 in
      for _ = 1 to c - rounds do
        let r = Prob.Rng.int rng rounds in
        sizes.(r) <- sizes.(r) + 1
      done;
      let strat = Strategy.of_sizes ~order ~sizes in
      List.for_all
        (fun objective ->
          let ef = Strategy.expected_paging ~objective inst strat in
          let eq =
            Numeric.Rational.to_float
              (Strategy.expected_paging_exact ~objective exact strat)
          in
          abs_float (ef -. eq) <= 1e-12 *. float_of_int c)
        [
          Objective.Find_all;
          Objective.Find_any;
          Objective.Find_at_least (1 + (m / 2));
        ])

let test_strategy_of_sizes () =
  let s = Strategy.of_sizes ~order:[| 3; 1; 0; 2 |] ~sizes:[| 2; 2 |] in
  check Alcotest.(array int) "g1" [| 1; 3 |] (Strategy.groups s).(0);
  check Alcotest.(array int) "g2" [| 0; 2 |] (Strategy.groups s).(1)

let test_strategy_page_all_and_singletons () =
  check int_t "page_all" 1 (Strategy.length (Strategy.page_all 5));
  check int_t "singletons" 5
    (Strategy.length (Strategy.singletons [| 4; 3; 2; 1; 0 |]))

let test_expected_paging_hand_computed () =
  (* m=1, p=(0.7, 0.2, 0.1), strategy {0}|{1,2}:
     EP = 3 - 2*0.7 = 1.6. *)
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1; 2 |] |] in
  check (float_t 1e-12) "EP" 1.6 (Strategy.expected_paging inst s);
  (* Two devices, joint success in first group = 0.7*0.1. *)
  let inst2 =
    Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |]; [| 0.1; 0.2; 0.7 |] |]
  in
  check (float_t 1e-12) "EP2"
    (3.0 -. (2.0 *. 0.07))
    (Strategy.expected_paging inst2 s)

let test_expected_rounds () =
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1; 2 |] |] in
  check (float_t 1e-12) "E[rounds]" 1.3 (Strategy.expected_rounds inst s)

let test_cost_on_outcome () =
  let s = Strategy.create [| [| 0; 1 |]; [| 2 |]; [| 3; 4 |] |] in
  check int_t "both round 1" 2
    (Strategy.cost_on_outcome s ~m:2 ~positions:[| 0; 1 |]);
  check int_t "one late" 5
    (Strategy.cost_on_outcome s ~m:2 ~positions:[| 0; 4 |]);
  check int_t "find any stops early" 2
    (Strategy.cost_on_outcome ~objective:Objective.Find_any s ~m:2
       ~positions:[| 0; 4 |]);
  check int_t "middle" 3
    (Strategy.cost_on_outcome s ~m:2 ~positions:[| 2; 2 |])

let test_strategy_rejects_too_many_rounds () =
  let inst = Instance.create ~d:1 [| [| 0.5; 0.5 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1 |] |] in
  match Strategy.expected_paging inst s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let prop_ep_between_bounds =
  QCheck.Test.make ~name:"EP in [1, c] for any strategy" ~count:200
    (QCheck.pair (QCheck.int_range 1 3) (QCheck.int_range 2 8))
    (fun (m, c) ->
      let rng = Prob.Rng.create ~seed:(m + (c * 77)) in
      let d = Stdlib.min c 3 in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let order = Array.init c (fun j -> j) in
      Prob.Rng.shuffle rng order;
      let s = Strategy.singletons (Array.sub order 0 c) in
      let s = if d < c then Strategy.page_all c else s in
      let ep = Strategy.expected_paging inst s in
      ep >= 1.0 -. 1e-9 && ep <= float_of_int c +. 1e-9)

let prop_find_any_cheaper_than_find_all =
  QCheck.Test.make ~name:"find-any EP <= find-all EP" ~count:100
    (QCheck.pair (QCheck.int_range 2 4) (QCheck.int_range 3 9))
    (fun (m, c) ->
      let rng = Prob.Rng.create ~seed:(m * c) in
      let d = 3 in
      let c = Stdlib.max c d in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let s = (Greedy.solve inst).Strategy.strategy in
      Strategy.expected_paging ~objective:Objective.Find_any inst s
      <= Strategy.expected_paging inst s +. 1e-9)

let prop_signature_monotone_in_k =
  QCheck.Test.make ~name:"EP monotone in k (signature)" ~count:60
    (QCheck.int_range 1 100000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let m = 4 and c = 8 and d = 3 in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let s = (Greedy.solve inst).Strategy.strategy in
      let eps =
        Array.init m (fun i ->
            Strategy.expected_paging
              ~objective:(Objective.Find_at_least (i + 1))
              inst s)
      in
      let ok = ref true in
      for i = 0 to m - 2 do
        if eps.(i) > eps.(i + 1) +. 1e-9 then ok := false
      done;
      !ok)

(* -------------------- Order_dp -------------------- *)

let test_order_dp_matches_brute_force_within_order () =
  (* The DP must find the best cut of the given order; verify against
     enumeration of all cut-size vectors. *)
  let rng = Prob.Rng.create ~seed:7 in
  for _ = 1 to 20 do
    let c = 6 + Prob.Rng.int rng 3 in
    let d = 2 + Prob.Rng.int rng 2 in
    let m = 1 + Prob.Rng.int rng 2 in
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let order = Instance.weight_order inst in
    let dp = Order_dp.solve inst ~order in
    (* Enumerate all compositions of c into exactly d positive parts. *)
    let best = ref infinity in
    let rec go parts remaining slots =
      if slots = 1 then begin
        if remaining >= 1 then begin
          let sizes = Array.of_list (List.rev (remaining :: parts)) in
          let s = Strategy.of_sizes ~order ~sizes in
          let ep = Strategy.expected_paging inst s in
          if ep < !best then best := ep
        end
      end
      else
        for v = 1 to remaining - slots + 1 do
          go (v :: parts) (remaining - v) (slots - 1)
        done
    in
    go [] c d;
    check (float_t 1e-9) "dp = brute force" !best dp.Strategy.expected_paging
  done

let test_order_dp_ep_consistent () =
  (* The DP's reported EP equals Lemma 2.1 applied to its strategy. *)
  let rng = Prob.Rng.create ~seed:8 in
  for _ = 1 to 30 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:12 ~d:4 in
    let r = Greedy.solve inst in
    check (float_t 1e-9) "consistent"
      (Strategy.expected_paging inst r.Strategy.strategy)
      r.Strategy.expected_paging
  done

let test_order_dp_rejects_bad_order () =
  let inst = sample_instance () in
  (match Order_dp.solve inst ~order:[| 0; 1 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "short order accepted");
  match Order_dp.solve inst ~order:[| 0; 1; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate order accepted"

let test_order_dp_prefix_table () =
  let inst = Instance.create ~d:2 [| [| 0.5; 0.3; 0.2 |] |] in
  let table = Order_dp.prefix_success_table inst ~order:[| 0; 1; 2 |] in
  check (float_t 1e-12) "F0" 0.0 table.(0);
  check (float_t 1e-12) "F1" 0.5 table.(1);
  check (float_t 1e-12) "F2" 0.8 table.(2);
  check (float_t 1e-12) "F3" 1.0 table.(3)

(* -------------------- Optimal -------------------- *)

let test_exhaustive_small_known () =
  (* m=1, d=2, p = (0.7, 0.2, 0.1): optimal pages {0} then {1,2}. *)
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let r = Optimal.exhaustive inst in
  check (float_t 1e-12) "EP" 1.6 r.Strategy.expected_paging

let test_bnb_matches_exhaustive () =
  let rng = Prob.Rng.create ~seed:9 in
  for _ = 1 to 25 do
    let m = 1 + Prob.Rng.int rng 3 in
    let c = 4 + Prob.Rng.int rng 6 in
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d:2 in
    let a = Optimal.exhaustive inst in
    let b = Optimal.branch_and_bound_d2 inst in
    check (float_t 1e-9) "bnb = exhaustive" a.Strategy.expected_paging
      b.Strategy.expected_paging
  done

let test_bnb_matches_exhaustive_other_objectives () =
  let rng = Prob.Rng.create ~seed:10 in
  for _ = 1 to 15 do
    let m = 2 + Prob.Rng.int rng 2 in
    let c = 4 + Prob.Rng.int rng 5 in
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d:2 in
    List.iter
      (fun obj ->
        let a = Optimal.exhaustive ~objective:obj inst in
        let b = Optimal.branch_and_bound_d2 ~objective:obj inst in
        check (float_t 1e-9)
          (Objective.to_string obj)
          a.Strategy.expected_paging b.Strategy.expected_paging)
      [ Objective.Find_any; Objective.Find_at_least 2 ]
  done

let test_bnb_requires_d2 () =
  let inst = Instance.all_uniform ~m:1 ~c:4 ~d:3 in
  match Optimal.branch_and_bound_d2 inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_exhaustive_guard () =
  let inst = Instance.all_uniform ~m:1 ~c:20 ~d:2 in
  match Optimal.exhaustive inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected size guard"

let test_best_dispatch () =
  let small = Instance.all_uniform ~m:2 ~c:6 ~d:2 in
  check bool_t "small solved" true (Optimal.best small <> None);
  let medium = Instance.all_uniform ~m:2 ~c:20 ~d:2 in
  check bool_t "medium via bnb" true (Optimal.best medium <> None);
  let large = Instance.all_uniform ~m:2 ~c:40 ~d:3 in
  check bool_t "large unsolved" true (Optimal.best large = None)

(* -------------------- Bounds -------------------- *)

let test_bounds_uniform_case () =
  (* Single uniform device: LB <= 3c/4 at d=2 and occupied-cells bound is
     exactly 1 - the m=1 occupancy sum = 1? No: occupied = sum over cells
     of p = 1. *)
  let inst = Instance.all_uniform ~m:1 ~c:8 ~d:2 in
  let lb = Bounds.lower_bound inst in
  check bool_t "lb <= opt" true (lb <= 6.0 +. 1e-9);
  check bool_t "lb >= 1" true (lb >= 1.0 -. 1e-9)

let test_occupied_cells_two_devices () =
  let inst =
    Instance.create ~d:2 [| [| 0.5; 0.5; 0.0 |]; [| 0.5; 0.0; 0.5 |] |]
  in
  (* occupied = (1-0.25) + 0.5 + 0.5 = 1.75 *)
  check (float_t 1e-12) "occupied" 1.75 (Bounds.occupied_cells inst)

let prop_bounds_admissible =
  QCheck.Test.make ~name:"bounds below greedy for all objectives" ~count:100
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let m = 1 + Prob.Rng.int rng 3 in
      let c = 3 + Prob.Rng.int rng 8 in
      let d = Stdlib.min c (1 + Prob.Rng.int rng 3) in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      List.for_all
        (fun obj ->
          match Objective.validate obj ~m with
          | Error _ -> true
          | Ok () ->
            let g = (Greedy.solve ~objective:obj inst).Strategy.expected_paging in
            Bounds.lower_bound ~objective:obj inst <= g +. 1e-9)
        [ Objective.Find_all; Objective.Find_any; Objective.Find_at_least 2 ])

(* -------------------- Solver front-end -------------------- *)

let test_solver_dispatch () =
  let inst = Instance.all_uniform ~m:2 ~c:6 ~d:2 in
  List.iter
    (fun spec ->
      let o = Solver.solve spec inst in
      check bool_t
        (Solver.spec_to_string spec)
        true
        (o.Solver.expected_paging >= 1.0
        && o.Solver.expected_paging <= 6.0 +. 1e-9))
    Solver.basic_specs

let test_solver_spec_parsing () =
  check bool_t "greedy" true (Solver.spec_of_string "greedy" = Ok Solver.Greedy);
  check bool_t "bandwidth" true
    (Solver.spec_of_string "bandwidth-3" = Ok (Solver.Bandwidth_limited 3));
  check bool_t "unknown" true (Result.is_error (Solver.spec_of_string "nope"));
  check bool_t "bad bandwidth" true
    (Result.is_error (Solver.spec_of_string "bandwidth-x"))

let test_solver_exactness_flags () =
  let inst = Instance.all_uniform ~m:1 ~c:6 ~d:2 in
  check bool_t "greedy m=1 exact" true (Solver.solve Solver.Greedy inst).Solver.exact;
  let inst2 = Instance.all_uniform ~m:2 ~c:6 ~d:2 in
  check bool_t "greedy m=2 not exact" false
    (Solver.solve Solver.Greedy inst2).Solver.exact;
  check bool_t "exhaustive exact" true
    (Solver.solve Solver.Exhaustive inst2).Solver.exact;
  (* Every spec on one device, one round and the general case: [None]
     where the method does not apply. *)
  let rng = Prob.Rng.create ~seed:593 in
  let one_device = Instance.random_uniform_simplex rng ~m:1 ~c:6 ~d:3 in
  let one_round = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:1 in
  let general = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
  List.iter
    (fun (spec, on_m1, on_d1, on_general) ->
      List.iter
        (fun (what, inst, expect) ->
          let name = Solver.spec_to_string spec ^ " " ^ what in
          let got =
            match Solver.solve spec inst with
            | o -> Some o.Solver.exact
            | exception Invalid_argument _ -> None
          in
          check (Alcotest.option bool_t) name expect got)
        [ ("m=1", one_device, on_m1); ("d=1", one_round, on_d1);
          ("general", general, on_general) ])
    Solver.
      [
        (Greedy, Some true, Some true, Some false);
        (Page_all, Some false, Some true, Some false);
        (Bandwidth_limited 6, Some false, Some false, Some false);
        (Local_search, Some false, Some false, Some false);
        (Exhaustive, Some true, Some true, Some true);
        (Branch_and_bound, None, None, Some true);
        (Best_exact, Some true, Some true, Some true);
        (Class_based, Some true, Some true, Some true);
        (Robust { eps = 0.05; tv = infinity }, Some false, Some false,
         Some false);
      ]

let () =
  Alcotest.run "core"
    [
      ( "instance",
        [
          Alcotest.test_case "create valid" `Quick test_instance_create_valid;
          Alcotest.test_case "create invalid" `Quick test_instance_create_invalid;
          Alcotest.test_case "validate names the bad row" `Quick
            test_instance_validate_named_errors;
          Alcotest.test_case "zeros allowed" `Quick
            test_instance_zero_probabilities_allowed;
          Alcotest.test_case "cell weight/order" `Quick test_cell_weight_and_order;
          Alcotest.test_case "tie break" `Quick test_weight_order_tie_break;
          Alcotest.test_case "with_d" `Quick test_instance_with_d;
          Alcotest.test_case "restrict" `Quick test_instance_restrict;
          Alcotest.test_case "serialization" `Quick
            test_instance_serialization_roundtrip;
          Alcotest.test_case "comments" `Quick test_instance_of_string_comments;
          Alcotest.test_case "CRLF and tab separators" `Quick
            test_instance_of_string_whitespace;
          qt prop_generators_valid;
          qt prop_zipf_valid;
        ] );
      ( "objective",
        [
          Alcotest.test_case "success" `Quick test_objective_success;
          Alcotest.test_case "poisson binomial" `Quick
            test_objective_poisson_binomial;
          Alcotest.test_case "found_enough" `Quick test_objective_found_enough;
          Alcotest.test_case "of_string" `Quick test_objective_of_string;
          qt prop_objective_monotone_in_probs;
          qt prop_objective_exact_matches_float;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "create/validate" `Quick
            test_strategy_create_and_validate;
          Alcotest.test_case "create invalid" `Quick test_strategy_create_invalid;
          Alcotest.test_case "of_sizes" `Quick test_strategy_of_sizes;
          Alcotest.test_case "page_all/singletons" `Quick
            test_strategy_page_all_and_singletons;
          Alcotest.test_case "EP hand computed" `Quick
            test_expected_paging_hand_computed;
          Alcotest.test_case "expected rounds" `Quick test_expected_rounds;
          Alcotest.test_case "cost on outcome" `Quick test_cost_on_outcome;
          Alcotest.test_case "round limit" `Quick
            test_strategy_rejects_too_many_rounds;
          qt prop_ep_between_bounds;
          qt prop_expected_paging_matches_exact;
          qt prop_find_any_cheaper_than_find_all;
          qt prop_signature_monotone_in_k;
        ] );
      ( "order_dp",
        [
          Alcotest.test_case "matches brute force" `Slow
            test_order_dp_matches_brute_force_within_order;
          Alcotest.test_case "EP consistent" `Quick test_order_dp_ep_consistent;
          Alcotest.test_case "rejects bad order" `Quick
            test_order_dp_rejects_bad_order;
          Alcotest.test_case "prefix table" `Quick test_order_dp_prefix_table;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "small known" `Quick test_exhaustive_small_known;
          Alcotest.test_case "bnb = exhaustive" `Slow test_bnb_matches_exhaustive;
          Alcotest.test_case "bnb requires d=2" `Quick test_bnb_requires_d2;
          Alcotest.test_case "bnb other objectives" `Slow
            test_bnb_matches_exhaustive_other_objectives;
          Alcotest.test_case "size guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "best dispatch" `Quick test_best_dispatch;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "uniform sanity" `Quick test_bounds_uniform_case;
          Alcotest.test_case "occupied cells" `Quick
            test_occupied_cells_two_devices;
          qt prop_bounds_admissible;
        ] );
      ( "solver",
        [
          Alcotest.test_case "dispatch" `Quick test_solver_dispatch;
          Alcotest.test_case "spec parsing" `Quick test_solver_spec_parsing;
          Alcotest.test_case "exactness flags" `Quick test_solver_exactness_flags;
        ] );
    ]
