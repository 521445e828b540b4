(* Numerical property tests for the paper's technical inequalities —
   Propositions 4.1/4.2 and Lemmas 4.4/4.5, which carry the whole
   approximation analysis — plus tests for the Analysis module and the
   block-diagonal instance builder. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

let unit_float = QCheck.map (fun n -> float_of_int n /. 10000.0) (QCheck.int_range 0 10000)

(* -------------------- Proposition 4.1 -------------------- *)
(* 1 <= x <= 2, a_i, b_i >= 0, a_i + b_i <= 1, a1 + a2 >= x - (b1 + b2)
   ==> (a1+b1)(a2+b2) >= x - 1. *)

let feasible_point m x bs raw_as =
  (* Clip a_i into [0, 1-b_i], then push mass up (toward the caps) until
     sum a >= x - sum b; always feasible since x <= m. *)
  let a = Array.mapi (fun i ai -> Stdlib.min ai (1.0 -. bs.(i))) raw_as in
  let needed = x -. Array.fold_left ( +. ) 0.0 bs in
  let current = Array.fold_left ( +. ) 0.0 a in
  if current < needed then begin
    let headroom =
      Array.mapi (fun i ai -> 1.0 -. bs.(i) -. ai) a
      |> Array.fold_left ( +. ) 0.0
    in
    if headroom > 0.0 then begin
      let lambda = Stdlib.min 1.0 ((needed -. current) /. headroom) in
      Array.iteri
        (fun i ai -> a.(i) <- ai +. (lambda *. (1.0 -. bs.(i) -. ai)))
        a
    end
  end;
  ignore m;
  a

let prop_proposition_41 =
  QCheck.Test.make ~name:"Proposition 4.1 inequality" ~count:2000
    (QCheck.quad unit_float unit_float (QCheck.pair unit_float unit_float)
       unit_float)
    (fun (b1, b2, (ra1, ra2), xt) ->
      let x = 1.0 +. xt in
      let bs = [| b1; b2 |] in
      let a = feasible_point 2 x bs [| ra1; ra2 |] in
      let sum_a = a.(0) +. a.(1) and sum_b = b1 +. b2 in
      QCheck.assume (sum_a >= x -. sum_b -. 1e-12);
      ((a.(0) +. b1) *. (a.(1) +. b2)) >= x -. 1.0 -. 1e-9)

(* -------------------- Proposition 4.2 -------------------- *)
(* 0 < s <= c, 1 <= x <= 2 ==> c - s(x-1) <= 4/3 (c - s (x/2)^2). *)

let prop_proposition_42 =
  QCheck.Test.make ~name:"Proposition 4.2 inequality" ~count:2000
    (QCheck.triple (QCheck.int_range 1 100) unit_float unit_float)
    (fun (c, st, xt) ->
      let c = float_of_int c in
      let s = st *. c in
      QCheck.assume (s > 0.0);
      let x = 1.0 +. xt in
      c -. (s *. (x -. 1.0))
      <= (4.0 /. 3.0 *. (c -. (s *. (x /. 2.0) *. (x /. 2.0)))) +. 1e-9)

(* -------------------- Lemma 4.4 -------------------- *)
(* m >= 2, m-1 <= x <= m, a_i,b_i >= 0, a_i+b_i <= 1,
   sum a >= x - sum b  ==>  prod (a_i + b_i) >= x - m + 1. *)

let prop_lemma_44 =
  QCheck.Test.make ~name:"Lemma 4.4 inequality" ~count:2000
    (QCheck.quad (QCheck.int_range 2 6)
       (QCheck.list_of_size (QCheck.Gen.return 6) unit_float)
       (QCheck.list_of_size (QCheck.Gen.return 6) unit_float)
       unit_float)
    (fun (m, bs_l, as_l, xt) ->
      let x = float_of_int (m - 1) +. xt in
      let bs = Array.sub (Array.of_list bs_l) 0 m in
      let raw_as = Array.sub (Array.of_list as_l) 0 m in
      let a = feasible_point m x bs raw_as in
      let sum_a = Array.fold_left ( +. ) 0.0 a in
      let sum_b = Array.fold_left ( +. ) 0.0 bs in
      QCheck.assume (sum_a >= x -. sum_b -. 1e-12);
      let product = ref 1.0 in
      Array.iteri (fun i ai -> product := !product *. (ai +. bs.(i))) a;
      !product >= x -. float_of_int m +. 1.0 -. 1e-9)

(* -------------------- Lemma 4.5 -------------------- *)
(* x_r in [m-1, m], s_2..s_d > 0 with sum <= c:
   c - sum_{r<=k} s_{r+1}(x_r - m + 1)
     <= e/(e-1) [c - sum s_{r+1}(x_r/m)^m - (s_{k+2}+..+s_d)/e]. *)

let prop_lemma_45 =
  QCheck.Test.make ~name:"Lemma 4.5 inequality" ~count:1000
    (QCheck.quad (QCheck.int_range 2 5) (QCheck.int_range 1 4)
       (QCheck.list_of_size (QCheck.Gen.return 8) unit_float)
       (QCheck.list_of_size (QCheck.Gen.return 8) unit_float))
    (fun (m, k, sizes_l, xs_l) ->
      let d = k + 1 + (m mod 3) in
      (* s_2 .. s_d: d-1 positive reals scaled to sum <= c. *)
      let c = 50.0 in
      let sizes =
        Array.init (d - 1) (fun i -> 0.05 +. List.nth sizes_l (i mod 8))
      in
      let total = Array.fold_left ( +. ) 0.0 sizes in
      let scale = if total > c then c /. total else 1.0 in
      let sizes = Array.map (fun s -> s *. scale) sizes in
      QCheck.assume (k <= d - 1);
      let xs =
        Array.init k (fun i ->
            float_of_int (m - 1) +. List.nth xs_l (i mod 8))
      in
      let mf = float_of_int m in
      let lhs = ref c in
      for r = 0 to k - 1 do
        lhs := !lhs -. (sizes.(r) *. (xs.(r) -. mf +. 1.0))
      done;
      let inner = ref c in
      for r = 0 to k - 1 do
        inner := !inner -. (sizes.(r) *. ((xs.(r) /. mf) ** mf))
      done;
      let tail = ref 0.0 in
      for r = k to d - 2 do
        tail := !tail +. sizes.(r)
      done;
      let e = exp 1.0 in
      let rhs = e /. (e -. 1.0) *. (!inner -. (!tail /. e)) in
      !lhs <= rhs +. 1e-9)

(* -------------------- Analysis module -------------------- *)

let test_cost_distribution_hand_computed () =
  (* m=1, p=(0.7,0.2,0.1), strategy {0}|{1,2}:
     P[cost=1] = 0.7, P[cost=3] = 0.3; mean = 1.6 = EP. *)
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1; 2 |] |] in
  let dist = Analysis.cost_distribution inst s in
  check Alcotest.(array (float 1e-12)) "support" [| 1.0; 3.0 |] dist.Analysis.support;
  check Alcotest.(array (float 1e-12)) "probs" [| 0.7; 0.3 |]
    dist.Analysis.probabilities;
  check (float_t 1e-12) "mean = EP" (Strategy.expected_paging inst s)
    dist.Analysis.mean;
  (* Var = 0.7*1 + 0.3*9 - 1.6^2 = 3.4 - 2.56 = 0.84. *)
  check (float_t 1e-12) "variance" 0.84 dist.Analysis.variance

let test_distribution_mean_equals_ep_random () =
  let rng = Prob.Rng.create ~seed:501 in
  for _ = 1 to 20 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:9 ~d:3 in
    let s = (Greedy.solve inst).Strategy.strategy in
    let dist = Analysis.cost_distribution inst s in
    check (float_t 1e-9) "mean = EP" (Strategy.expected_paging inst s)
      dist.Analysis.mean;
    let total = Array.fold_left ( +. ) 0.0 dist.Analysis.probabilities in
    check (float_t 1e-9) "probabilities sum to 1" 1.0 total
  done

let test_rounds_distribution_mean () =
  let rng = Prob.Rng.create ~seed:502 in
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:9 ~d:3 in
  let s = (Greedy.solve inst).Strategy.strategy in
  let dist = Analysis.rounds_distribution inst s in
  check (float_t 1e-9) "mean = expected rounds"
    (Strategy.expected_rounds inst s)
    dist.Analysis.mean

let test_quantiles () =
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1; 2 |] |] in
  let dist = Analysis.cost_distribution inst s in
  check (float_t 1e-12) "median" 1.0 (Analysis.quantile dist 0.5);
  check (float_t 1e-12) "p90" 3.0 (Analysis.quantile dist 0.9);
  check (float_t 1e-12) "p0" 1.0 (Analysis.quantile dist 0.0)

let test_frontier_monotone () =
  let rng = Prob.Rng.create ~seed:503 in
  let inst = Instance.random_zipf rng ~s:1.1 ~m:2 ~c:20 ~d:1 in
  let frontier = Analysis.delay_paging_frontier inst ~max_d:6 in
  check Alcotest.int "points" 6 (Array.length frontier);
  for i = 0 to 4 do
    let _, ep1 = frontier.(i) and _, ep2 = frontier.(i + 1) in
    check bool_t "EP non-increasing along frontier" true (ep2 <= ep1 +. 1e-9)
  done;
  let r1, ep1 = frontier.(0) in
  check (float_t 1e-9) "d=1 rounds" 1.0 r1;
  check (float_t 1e-9) "d=1 EP = c" 20.0 ep1

let test_equal_ep_different_variance () =
  (* Distribution view distinguishes strategies the expectation cannot:
     uniform single device, c = 4, d = 2: {0,1}|{2,3} and {2,3}|{0,1}
     have equal EP (3.0) but a point-reordered support. Compare instead
     singletons vs halves at d = 4 where variance differs. *)
  let inst = Instance.all_uniform ~m:1 ~c:4 ~d:4 in
  let halves = Strategy.create [| [| 0; 1 |]; [| 2; 3 |] |] in
  let ones = Strategy.singletons [| 0; 1; 2; 3 |] in
  let dh = Analysis.cost_distribution inst halves in
  let d1 = Analysis.cost_distribution inst ones in
  check bool_t "singletons cheaper on average" true
    (d1.Analysis.mean < dh.Analysis.mean);
  check bool_t "but with more spread" true
    (d1.Analysis.stddev > dh.Analysis.stddev)

(* -------------------- block_diagonal -------------------- *)

let test_block_diagonal_shape () =
  let part1 = [| [| 0.5; 0.5 |] |] in
  let part2 = [| [| 0.3; 0.3; 0.4 |]; [| 0.2; 0.2; 0.6 |] |] in
  let inst = Instance.block_diagonal ~d:2 [ part1; part2 ] in
  check Alcotest.int "m" 3 inst.Instance.m;
  check Alcotest.int "c" 5 inst.Instance.c;
  check (float_t 1e-12) "device 0 in block 1" 0.5 inst.Instance.p.(0).(0);
  check (float_t 1e-12) "device 0 zero elsewhere" 0.0 inst.Instance.p.(0).(2);
  check (float_t 1e-12) "device 1 in block 2" 0.3 inst.Instance.p.(1).(2);
  check (float_t 1e-12) "device 1 zero in block 1" 0.0 inst.Instance.p.(1).(0)

let test_block_diagonal_solvable () =
  (* Disjoint supports: with enough rounds the solver should page the
     blocks separately; EP must not exceed c. *)
  let rng = Prob.Rng.create ~seed:504 in
  let part k = [| Prob.Dist.uniform_simplex rng k |] in
  let inst = Instance.block_diagonal ~d:3 [ part 4; part 4; part 4 ] in
  let r = Greedy.solve inst in
  check bool_t "EP below c" true (r.Strategy.expected_paging < 12.0);
  check bool_t "EP above occupied-cells bound" true
    (r.Strategy.expected_paging >= Bounds.occupied_cells inst -. 1e-9)

let test_block_diagonal_invalid () =
  (match Instance.block_diagonal ~d:1 [] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty accepted");
  match Instance.block_diagonal ~d:1 [ [| [| 0.5 |]; [| 0.3; 0.7 |] |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged accepted"

let () =
  Alcotest.run "lemmas"
    [
      ( "paper-inequalities",
        [
          qt prop_proposition_41;
          qt prop_proposition_42;
          qt prop_lemma_44;
          qt prop_lemma_45;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "hand computed" `Quick
            test_cost_distribution_hand_computed;
          Alcotest.test_case "mean = EP" `Quick
            test_distribution_mean_equals_ep_random;
          Alcotest.test_case "rounds mean" `Quick test_rounds_distribution_mean;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "frontier" `Quick test_frontier_monotone;
          Alcotest.test_case "variance view" `Quick
            test_equal_ep_different_variance;
        ] );
      ( "block-diagonal",
        [
          Alcotest.test_case "shape" `Quick test_block_diagonal_shape;
          Alcotest.test_case "solvable" `Quick test_block_diagonal_solvable;
          Alcotest.test_case "invalid" `Quick test_block_diagonal_invalid;
        ] );
    ]
