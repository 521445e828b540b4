(* Tests for the §5 extensions: adaptive strategies, Yellow Pages,
   Signature, bandwidth-limited paging, imperfect detection. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

(* -------------------- Adaptive -------------------- *)

let test_oblivious_policy_replays_strategy () =
  (* Evaluating a fixed strategy through the adaptive machinery must
     reproduce Lemma 2.1 exactly. *)
  let rng = Prob.Rng.create ~seed:61 in
  for _ = 1 to 15 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:7 ~d:3 in
    let s = (Greedy.solve inst).Strategy.strategy in
    let via_policy = Adaptive.evaluate_exact inst (Adaptive.oblivious_policy s) in
    check (float_t 1e-9) "replay = formula"
      (Strategy.expected_paging inst s)
      via_policy
  done

let test_adaptive_never_worse_than_oblivious () =
  let rng = Prob.Rng.create ~seed:62 in
  for _ = 1 to 15 do
    let m = 2 and c = 6 and d = 3 in
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let oblivious = (Greedy.solve inst).Strategy.expected_paging in
    let adaptive = Adaptive.greedy_adaptive_ep inst in
    if adaptive > oblivious +. 1e-9 then
      Alcotest.failf "adaptive %.6f worse than oblivious %.6f" adaptive
        oblivious
  done

let test_adaptive_exact_matches_monte_carlo () =
  let rng = Prob.Rng.create ~seed:63 in
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
  let policy = Adaptive.greedy_policy inst in
  let exact = Adaptive.evaluate_exact inst policy in
  let mc = Adaptive.evaluate_monte_carlo inst policy rng ~trials:40_000 in
  let halfwidth = 4.0 *. Prob.Stats.ci95_halfwidth mc in
  if abs_float (mc.Prob.Stats.mean -. exact) > halfwidth then
    Alcotest.failf "adaptive exact %.4f vs MC %.4f ± %.4f" exact
      mc.Prob.Stats.mean halfwidth

let test_adaptive_single_device_matches_optimal () =
  (* With m = 1 there is no useful feedback before the device is found,
     so adaptive greedy equals the (optimal) oblivious DP. *)
  let rng = Prob.Rng.create ~seed:64 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:1 ~c:6 ~d:3 in
    let oblivious = (Greedy.solve inst).Strategy.expected_paging in
    let adaptive = Adaptive.greedy_adaptive_ep inst in
    check (float_t 1e-9) "m=1 adaptive = oblivious" oblivious adaptive
  done

let test_adaptive_guard () =
  let inst = Instance.all_uniform ~m:8 ~c:30 ~d:2 in
  match Adaptive.evaluate_exact inst (Adaptive.greedy_policy inst) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected c^m guard"

(* -------------------- Yellow Pages -------------------- *)

let test_yellow_pages_better_than_find_all () =
  let rng = Prob.Rng.create ~seed:71 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:3 ~c:8 ~d:3 in
    let yp = (Yellow_pages.solve inst).Strategy.expected_paging in
    let all = (Greedy.solve inst).Strategy.expected_paging in
    check bool_t "YP <= conference" true (yp <= all +. 1e-9)
  done

let test_yellow_pages_vs_exhaustive () =
  let rng = Prob.Rng.create ~seed:72 in
  for _ = 1 to 15 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:7 ~d:2 in
    let heur = (Yellow_pages.solve inst).Strategy.expected_paging in
    let opt = (Yellow_pages.exhaustive inst).Strategy.expected_paging in
    check bool_t "heuristic >= opt" true (heur >= opt -. 1e-9);
    (* The combined heuristic is decent on random instances. *)
    check bool_t "within factor 2 on random instances" true
      (heur <= (2.0 *. opt) +. 1e-9)
  done

let prop_best_single_device_within_m =
  (* The m-approximation claim for the best-single-device policy, checked
     against exhaustive find-any optima. *)
  QCheck.Test.make ~name:"best-single-device <= m x OPT (find-any)" ~count:40
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let m = 2 + Prob.Rng.int rng 2 in
      let c = 4 + Prob.Rng.int rng 4 in
      let d = 2 in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let bsd = (Yellow_pages.best_single_device inst).Strategy.expected_paging in
      let opt = (Yellow_pages.exhaustive inst).Strategy.expected_paging in
      bsd <= (float_of_int m *. opt) +. 1e-9)

let test_adversarial_instance_shape () =
  let inst = Yellow_pages.adversarial_instance ~blocks:3 ~d:2 in
  check int_t "m" 4 inst.Instance.m;
  check int_t "c" 12 inst.Instance.c;
  check bool_t "valid" true (Instance.validate ~d:2 inst.Instance.p = Ok ())

let test_adversarial_hurts_natural_heuristic () =
  (* The natural heuristic must be strictly worse than the best-single-
     device heuristic on the adversarial family, with a growing gap. *)
  let gap blocks =
    let inst = Yellow_pages.adversarial_instance ~blocks ~d:2 in
    let nat = (Yellow_pages.natural_heuristic inst).Strategy.expected_paging in
    let single = (Yellow_pages.best_single_device inst).Strategy.expected_paging in
    nat /. single
  in
  let g2 = gap 2 and g6 = gap 6 and g12 = gap 12 in
  check bool_t "suboptimal at 2 blocks" true (g2 > 1.02);
  check bool_t "gap grows" true (g12 > g6 && g6 > g2)

(* -------------------- Signature -------------------- *)

let test_signature_endpoints () =
  (* k = m reduces to Find_all; k = 1 to Find_any. *)
  let rng = Prob.Rng.create ~seed:81 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:3 ~c:8 ~d:3 in
    check (float_t 1e-9) "k=m = conference"
      (Greedy.solve inst).Strategy.expected_paging
      (Signature.solve inst ~k:3).Strategy.expected_paging;
    check (float_t 1e-9) "k=1 = yellow pages"
      (Greedy.solve ~objective:Objective.Find_any inst).Strategy.expected_paging
      (Signature.solve inst ~k:1).Strategy.expected_paging
  done

let test_signature_sweep_monotone () =
  let rng = Prob.Rng.create ~seed:82 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:5 ~c:10 ~d:3 in
    let sweep = Signature.sweep inst in
    check int_t "length" 5 (Array.length sweep);
    for i = 0 to 3 do
      check bool_t "monotone" true (sweep.(i) <= sweep.(i + 1) +. 1e-9)
    done
  done

let test_signature_bad_k () =
  let inst = Instance.all_uniform ~m:2 ~c:4 ~d:2 in
  (match Signature.solve inst ~k:0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "k=0 accepted");
  match Signature.solve inst ~k:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k>m accepted"

let test_signature_vs_exhaustive () =
  let rng = Prob.Rng.create ~seed:83 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:3 ~c:6 ~d:2 in
    let heur = (Signature.solve inst ~k:2).Strategy.expected_paging in
    let opt = (Signature.exhaustive inst ~k:2).Strategy.expected_paging in
    check bool_t "heuristic >= opt" true (heur >= opt -. 1e-9)
  done

(* -------------------- Bandwidth -------------------- *)

let test_bandwidth_feasibility () =
  check bool_t "feasible" true (Bandwidth.feasible ~c:10 ~d:5 ~b:2);
  check bool_t "tight" true (Bandwidth.feasible ~c:10 ~d:2 ~b:5);
  check bool_t "infeasible" false (Bandwidth.feasible ~c:10 ~d:3 ~b:3)

let test_bandwidth_respects_cap () =
  let rng = Prob.Rng.create ~seed:91 in
  for _ = 1 to 15 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:12 ~d:4 in
    let r = Bandwidth.solve inst ~b:4 in
    Array.iter
      (fun s -> check bool_t "cap" true (s <= 4))
      (Strategy.sizes r.Strategy.strategy)
  done

let test_bandwidth_infeasible_raises () =
  let inst = Instance.all_uniform ~m:1 ~c:12 ~d:2 in
  match Bandwidth.solve inst ~b:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected infeasibility"

let test_bandwidth_monotone_in_b () =
  (* Looser caps can only help. *)
  let rng = Prob.Rng.create ~seed:92 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:12 ~d:4 in
    let eps = Bandwidth.sweep inst ~bs:[| 3; 4; 6; 8; 12 |] in
    for i = 0 to Array.length eps - 2 do
      check bool_t "monotone" true (eps.(i + 1) <= eps.(i) +. 1e-9)
    done
  done

let test_bandwidth_matches_exhaustive_within_order () =
  (* On instances where exhaustive search is possible, capped greedy must
     be >= capped optimum and both <= c. *)
  let rng = Prob.Rng.create ~seed:93 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:8 ~d:4 in
    let heur = (Bandwidth.solve inst ~b:3).Strategy.expected_paging in
    let opt = (Bandwidth.exhaustive inst ~b:3).Strategy.expected_paging in
    check bool_t "heur >= opt" true (heur >= opt -. 1e-9);
    check bool_t "heur <= c" true (heur <= 8.0 +. 1e-9)
  done

let test_bandwidth_unconstrained_matches_greedy () =
  let rng = Prob.Rng.create ~seed:94 in
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:10 ~d:3 in
  check (float_t 1e-12) "b = c is unconstrained"
    (Greedy.solve inst).Strategy.expected_paging
    (Bandwidth.solve inst ~b:10).Strategy.expected_paging

(* -------------------- Miss (imperfect detection) -------------------- *)

let test_miss_perfect_detection_equals_strategy_cost () =
  (* q = 1 and a partition schedule is the standard model. *)
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1; 2 |] |] in
  let schedule = Miss.repeat_strategy s ~cycles:1 in
  let ep, success = Miss.single_device_exact inst ~q:1.0 ~schedule in
  check (float_t 1e-12) "EP" 1.6 ep;
  check (float_t 1e-12) "finds surely" 1.0 success

let test_miss_lower_q_costs_more () =
  let inst = Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1; 2 |] |] in
  let schedule = Miss.repeat_strategy s ~cycles:4 in
  let ep1, s1 = Miss.single_device_exact inst ~q:1.0 ~schedule in
  let ep2, s2 = Miss.single_device_exact inst ~q:0.6 ~schedule in
  check bool_t "more cost" true (ep2 > ep1);
  check bool_t "less success" true (s2 < s1);
  check bool_t "repage recovers most" true (s2 > 0.95)

let test_miss_exact_matches_simulation () =
  let inst = Instance.create ~d:3 [| [| 0.5; 0.3; 0.2 |] |] in
  let s = Strategy.create [| [| 0 |]; [| 1 |]; [| 2 |] |] in
  let schedule = Miss.repeat_strategy s ~cycles:3 in
  let exact, _ = Miss.single_device_exact inst ~q:0.7 ~schedule in
  let rng = Prob.Rng.create ~seed:101 in
  let summary, _ = Miss.simulate inst ~q:0.7 ~schedule rng ~trials:60_000 in
  let halfwidth = 4.0 *. Prob.Stats.ci95_halfwidth summary in
  if abs_float (summary.Prob.Stats.mean -. exact) > halfwidth then
    Alcotest.failf "miss model: exact %.4f vs MC %.4f ± %.4f" exact
      summary.Prob.Stats.mean halfwidth

let test_optimal_look_sequence_greedy_property () =
  (* The sequence must schedule looks in non-increasing marginal
     detection probability. *)
  let p = [| 0.6; 0.3; 0.1 |] and q = [| 0.5; 0.9; 1.0 |] in
  let seq = Miss.optimal_look_sequence ~horizon:8 p q in
  let marginal = Array.map2 (fun pi qi -> pi *. qi) p q in
  let looks_done = Array.make 3 0 in
  let prev = ref infinity in
  Array.iter
    (fun j ->
      let m = marginal.(j) *. ((1.0 -. q.(j)) ** float_of_int looks_done.(j)) in
      check bool_t "non-increasing marginals" true (m <= !prev +. 1e-12);
      prev := m;
      looks_done.(j) <- looks_done.(j) + 1)
    seq

let test_detection_curve_monotone () =
  let p = [| 0.5; 0.5 |] and q = [| 0.4; 0.8 |] in
  let seq = Miss.optimal_look_sequence ~horizon:10 p q in
  let curve = Miss.detection_curve p q seq in
  for t = 0 to Array.length curve - 2 do
    check bool_t "monotone" true (curve.(t) <= curve.(t + 1) +. 1e-12)
  done;
  check bool_t "approaches 1" true (curve.(10) > 0.9)

let test_expected_looks_beats_bad_order () =
  (* Greedy look order must not lose to a fixed round-robin order. *)
  let p = [| 0.7; 0.2; 0.1 |] and q = [| 0.9; 0.9; 0.9 |] in
  let horizon = 12 in
  let greedy_e, _ = Miss.expected_looks ~horizon p q in
  let round_robin = Array.init horizon (fun t -> t mod 3) in
  let curve = Miss.detection_curve p q round_robin in
  let rr_e = ref 0.0 in
  for t = 0 to horizon - 1 do
    rr_e := !rr_e +. (1.0 -. curve.(t))
  done;
  check bool_t "greedy <= round robin" true (greedy_e <= !rr_e +. 1e-9)

let test_miss_conference_simulation () =
  let rng = Prob.Rng.create ~seed:102 in
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:3 in
  let s = (Greedy.solve inst).Strategy.strategy in
  let schedule = Miss.repeat_strategy s ~cycles:5 in
  let summary, success = Miss.simulate inst ~q:0.8 ~schedule rng ~trials:5000 in
  check bool_t "success high with repaging" true (success > 0.95);
  check bool_t "cost above perfect-detection EP" true
    (summary.Prob.Stats.mean >= (Greedy.solve inst).Strategy.expected_paging -. 0.2)

let prop_miss_q1_matches_lemma21 =
  QCheck.Test.make ~name:"q=1 single-device miss model = Lemma 2.1" ~count:50
    (QCheck.int_range 1 100000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let c = 3 + Prob.Rng.int rng 6 in
      let d = Stdlib.min c (1 + Prob.Rng.int rng 3) in
      let inst = Instance.random_uniform_simplex rng ~m:1 ~c ~d in
      let s = (Greedy.solve inst).Strategy.strategy in
      let schedule = Miss.repeat_strategy s ~cycles:1 in
      let ep, _ = Miss.single_device_exact inst ~q:1.0 ~schedule in
      abs_float (ep -. Strategy.expected_paging inst s) < 1e-9)

let () =
  Alcotest.run "extensions"
    [
      ( "adaptive",
        [
          Alcotest.test_case "oblivious replay" `Quick
            test_oblivious_policy_replays_strategy;
          Alcotest.test_case "never worse" `Slow
            test_adaptive_never_worse_than_oblivious;
          Alcotest.test_case "exact vs MC" `Slow
            test_adaptive_exact_matches_monte_carlo;
          Alcotest.test_case "m=1 equals oblivious" `Quick
            test_adaptive_single_device_matches_optimal;
          Alcotest.test_case "state guard" `Quick test_adaptive_guard;
        ] );
      ( "yellow-pages",
        [
          Alcotest.test_case "cheaper than find-all" `Quick
            test_yellow_pages_better_than_find_all;
          Alcotest.test_case "vs exhaustive" `Slow test_yellow_pages_vs_exhaustive;
          Alcotest.test_case "adversarial shape" `Quick
            test_adversarial_instance_shape;
          Alcotest.test_case "natural heuristic hurt" `Quick
            test_adversarial_hurts_natural_heuristic;
          qt prop_best_single_device_within_m;
        ] );
      ( "signature",
        [
          Alcotest.test_case "endpoints" `Quick test_signature_endpoints;
          Alcotest.test_case "sweep monotone" `Quick test_signature_sweep_monotone;
          Alcotest.test_case "bad k" `Quick test_signature_bad_k;
          Alcotest.test_case "vs exhaustive" `Slow test_signature_vs_exhaustive;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "feasibility" `Quick test_bandwidth_feasibility;
          Alcotest.test_case "respects cap" `Quick test_bandwidth_respects_cap;
          Alcotest.test_case "infeasible raises" `Quick
            test_bandwidth_infeasible_raises;
          Alcotest.test_case "monotone in b" `Quick test_bandwidth_monotone_in_b;
          Alcotest.test_case "vs exhaustive" `Slow
            test_bandwidth_matches_exhaustive_within_order;
          Alcotest.test_case "b=c unconstrained" `Quick
            test_bandwidth_unconstrained_matches_greedy;
        ] );
      ( "miss",
        [
          Alcotest.test_case "perfect detection" `Quick
            test_miss_perfect_detection_equals_strategy_cost;
          Alcotest.test_case "lower q costs more" `Quick
            test_miss_lower_q_costs_more;
          Alcotest.test_case "exact vs simulation" `Slow
            test_miss_exact_matches_simulation;
          Alcotest.test_case "greedy look order" `Quick
            test_optimal_look_sequence_greedy_property;
          Alcotest.test_case "detection curve" `Quick test_detection_curve_monotone;
          Alcotest.test_case "beats round robin" `Quick
            test_expected_looks_beats_bad_order;
          Alcotest.test_case "conference simulation" `Slow
            test_miss_conference_simulation;
          qt prop_miss_q1_matches_lemma21;
        ] );
    ]
