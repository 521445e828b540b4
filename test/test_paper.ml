(* Tests pinned to quantitative claims made in the paper itself:
   - §1.1 worked example: uniform single device, d = 2 ⇒ EP = 3c/4;
   - §4.3 lower-bound instance: OPT = 317/49, heuristic = 320/49;
   - Theorem 4.8: greedy within e/(e-1) of OPT;
   - Lemma 4.3: within 4/3 for m = d = 2;
   - Lemma 2.1: the EP formula matches Monte Carlo simulation;
   - §3: the NP-hardness reduction identities. *)

module Q = Numeric.Rational

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t eps = Alcotest.float eps

(* ---------- §1.1: uniform single device, d = 2 gives 3c/4 ---------- *)

let test_uniform_3c_over_4 () =
  List.iter
    (fun c ->
      let inst = Instance.all_uniform ~m:1 ~c ~d:2 in
      let r = Single.solve inst in
      let expected = 3.0 *. float_of_int c /. 4.0 in
      check (float_t 1e-9)
        (Printf.sprintf "c=%d dp" c)
        expected r.Strategy.expected_paging;
      check (float_t 1e-9)
        (Printf.sprintf "c=%d closed form" c)
        expected
        (Single.uniform_ep ~c ~d:2);
      (* The optimal split is half and half. *)
      check Alcotest.(array int) "sizes" [| c / 2; c / 2 |]
        (Strategy.sizes r.Strategy.strategy))
    [ 2; 4; 10; 100; 512 ]

let test_uniform_closed_form_matches_dp () =
  for c = 2 to 24 do
    for d = 1 to Stdlib.min c 6 do
      let inst = Instance.all_uniform ~m:1 ~c ~d in
      let r = Single.solve inst in
      check (float_t 1e-9)
        (Printf.sprintf "c=%d d=%d" c d)
        (Single.uniform_ep ~c ~d)
        r.Strategy.expected_paging
    done
  done

let test_uniform_d1_pages_everything () =
  let inst = Instance.all_uniform ~m:3 ~c:7 ~d:1 in
  let r = Greedy.solve inst in
  check (float_t 1e-9) "EP = c" 7.0 r.Strategy.expected_paging;
  check Alcotest.int "one round" 1 (Strategy.length r.Strategy.strategy)

(* ---------- §4.3: the 320/317 lower-bound instance ---------- *)

let lb_instance_rows () =
  let seventh = 1.0 /. 7.0 in
  let p1 = [| 2.0 /. 7.0; seventh; seventh; seventh; seventh; seventh; 0.0; 0.0 |] in
  let p2 = [| 0.0; seventh; seventh; seventh; seventh; seventh; seventh; seventh |] in
  p1, p2

let lb_instance_exact () =
  let s = Q.of_ints 1 7 in
  let z = Q.zero in
  let p1 = [| Q.of_ints 2 7; s; s; s; s; s; z; z |] in
  let p2 = [| z; s; s; s; s; s; s; s |] in
  Instance.Exact.create ~d:2 [| p1; p2 |]

let test_lower_bound_instance_optimal () =
  let inst = lb_instance_exact () in
  let strategy, ep = Optimal.exhaustive_exact inst in
  check bool_t "OPT = 317/49" true (Q.equal ep (Q.of_ints 317 49));
  (* The optimal strategy pages cells 2..6 (indices 1..5) first. *)
  let g = Strategy.groups strategy in
  check Alcotest.(array int) "first group" [| 1; 2; 3; 4; 5 |] g.(0)

let test_lower_bound_instance_heuristic () =
  let p1, p2 = lb_instance_rows () in
  let inst = Instance.create ~d:2 [| p1; p2 |] in
  let r = Greedy.solve inst in
  (* Evaluate the heuristic's strategy in exact arithmetic. *)
  let exact = lb_instance_exact () in
  let ep = Strategy.expected_paging_exact exact r.Strategy.strategy in
  check bool_t "heuristic = 320/49" true (Q.equal ep (Q.of_ints 320 49));
  (* The heuristic pages cells 1..5 (indices 0..4) first. *)
  let g = Strategy.groups r.Strategy.strategy in
  check Alcotest.(array int) "first group" [| 0; 1; 2; 3; 4 |] g.(0)

let test_ratio_constant_is_320_317 () =
  check (float_t 1e-12) "320/317" (320.0 /. 317.0) Greedy.ratio_lower_bound

(* ---------- Theorem 4.8 / Lemma 4.3 approximation bounds ---------- *)

let random_ratio_check ~m ~c ~d ~bound ~seed ~trials =
  let rng = Prob.Rng.create ~seed in
  for trial = 1 to trials do
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let greedy = Greedy.solve inst in
    let opt = Optimal.exhaustive inst in
    let ratio =
      greedy.Strategy.expected_paging /. opt.Strategy.expected_paging
    in
    if ratio > bound +. 1e-9 then
      Alcotest.failf "trial %d: ratio %.6f exceeds bound %.6f (m=%d c=%d d=%d)"
        trial ratio bound m c d;
    if greedy.Strategy.expected_paging < opt.Strategy.expected_paging -. 1e-9
    then
      Alcotest.failf "trial %d: greedy %.6f beats exhaustive %.6f" trial
        greedy.Strategy.expected_paging opt.Strategy.expected_paging
  done

let test_ratio_m2_d2_within_4_3 () =
  random_ratio_check ~m:2 ~c:8 ~d:2 ~bound:(4.0 /. 3.0) ~seed:11 ~trials:60

let test_ratio_general_within_e () =
  random_ratio_check ~m:3 ~c:7 ~d:3 ~bound:Greedy.approximation_factor ~seed:12
    ~trials:30;
  random_ratio_check ~m:2 ~c:9 ~d:3 ~bound:Greedy.approximation_factor ~seed:13
    ~trials:30;
  random_ratio_check ~m:4 ~c:6 ~d:2 ~bound:Greedy.approximation_factor ~seed:14
    ~trials:30

let test_single_device_greedy_is_optimal () =
  (* m = 1 is in P: the heuristic must match exhaustive search exactly. *)
  let rng = Prob.Rng.create ~seed:21 in
  for _ = 1 to 40 do
    let inst = Instance.random_uniform_simplex rng ~m:1 ~c:8 ~d:3 in
    let greedy = Greedy.solve inst in
    let opt = Optimal.exhaustive inst in
    check (float_t 1e-9) "m=1 optimal" opt.Strategy.expected_paging
      greedy.Strategy.expected_paging
  done

(* ---------- Lemma 2.1: EP formula vs Monte Carlo ---------- *)

let test_ep_formula_vs_monte_carlo () =
  let rng = Prob.Rng.create ~seed:31 in
  for _ = 1 to 5 do
    let inst = Instance.random_zipf rng ~s:1.0 ~m:2 ~c:10 ~d:3 in
    let r = Greedy.solve inst in
    let mc =
      Strategy.monte_carlo_ep inst r.Strategy.strategy rng ~trials:60_000
    in
    let halfwidth = 4.0 *. Prob.Stats.ci95_halfwidth mc in
    if abs_float (mc.Prob.Stats.mean -. r.Strategy.expected_paging) > halfwidth
    then
      Alcotest.failf "Lemma 2.1 mismatch: formula %.4f, MC %.4f ± %.4f"
        r.Strategy.expected_paging mc.Prob.Stats.mean halfwidth
  done

let test_ep_exact_matches_float () =
  let exact = lb_instance_exact () in
  let float_inst = Instance.Exact.to_float exact in
  let strategy = Strategy.create [| [| 1; 2; 3; 4; 5 |]; [| 0; 6; 7 |] |] in
  let qe = Strategy.expected_paging_exact exact strategy in
  let fe = Strategy.expected_paging float_inst strategy in
  check (float_t 1e-9) "exact vs float" (Q.to_float qe) fe

(* ---------- Lemma 2.1 remark: longer strategies never hurt ---------- *)

let test_longer_strategies_weakly_better () =
  let rng = Prob.Rng.create ~seed:41 in
  for _ = 1 to 10 do
    let base = Instance.random_uniform_simplex rng ~m:2 ~c:10 ~d:1 in
    let eps = ref [] in
    for d = 1 to 6 do
      let inst = Instance.with_d base d in
      eps := (Greedy.solve inst).Strategy.expected_paging :: !eps
    done;
    let arr = Array.of_list (List.rev !eps) in
    check bool_t "EP non-increasing in d" true
      (Numeric.Convex.is_nonincreasing ~eps:1e-9 arr)
  done

(* ---------- Theorem 4.8 existence argument (Lemma 4.6) ---------- *)

let test_lemma46_same_sizes_family () =
  (* For any strategy S with sizes s, the weight-order strategy T with
     the same sizes satisfies EP_T <= e/(e-1) * EP_S. *)
  let rng = Prob.Rng.create ~seed:51 in
  for _ = 1 to 200 do
    let m = 1 + Prob.Rng.int rng 3 in
    let c = 4 + Prob.Rng.int rng 5 in
    let d = 2 + Prob.Rng.int rng 2 in
    let d = Stdlib.min d c in
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    (* Random strategy: random order, random cut sizes. *)
    let order = Array.init c (fun j -> j) in
    Prob.Rng.shuffle rng order;
    let sizes =
      let cuts = Array.init (d - 1) (fun _ -> 1 + Prob.Rng.int rng (c - 1)) in
      Array.sort compare cuts;
      let bounds = Array.concat [ [| 0 |]; cuts; [| c |] ] in
      let sizes = Array.init d (fun i -> bounds.(i + 1) - bounds.(i)) in
      if Array.exists (fun s -> s = 0) sizes then [| c |] else sizes
    in
    let s = Strategy.of_sizes ~order ~sizes in
    let t = Strategy.of_sizes ~order:(Greedy.order inst) ~sizes in
    let ep_s = Strategy.expected_paging inst s in
    let ep_t = Strategy.expected_paging inst t in
    if ep_t > (Greedy.approximation_factor *. ep_s) +. 1e-9 then
      Alcotest.failf "Lemma 4.6 violated: EP_T %.5f > %.5f * EP_S %.5f" ep_t
        Greedy.approximation_factor ep_s
  done

let qt = QCheck_alcotest.to_alcotest

(* Property: greedy EP always between the lower bound and c. *)
let prop_greedy_between_bounds =
  QCheck.Test.make ~name:"LB <= greedy EP <= c" ~count:100
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 2 12))
    (fun (m, c) ->
      let rng = Prob.Rng.create ~seed:(71 + (m * 1000) + c) in
      let d = Stdlib.min c 3 in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let g = (Greedy.solve inst).Strategy.expected_paging in
      let lb = Bounds.lower_bound inst in
      lb <= g +. 1e-9 && g <= float_of_int c +. 1e-9)

(* Property: exhaustive OPT is at least the DP lower bound. *)
let prop_lb_below_opt =
  QCheck.Test.make ~name:"lower bound admissible vs exhaustive" ~count:40
    (QCheck.pair (QCheck.int_range 1 3) (QCheck.int_range 3 7))
    (fun (m, c) ->
      let rng = Prob.Rng.create ~seed:(91 + (m * 1000) + c) in
      let d = 2 in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let opt = (Optimal.exhaustive inst).Strategy.expected_paging in
      Bounds.lower_bound inst <= opt +. 1e-9)

let () =
  Alcotest.run "paper"
    [
      ( "uniform-example",
        [
          Alcotest.test_case "3c/4 (d=2)" `Quick test_uniform_3c_over_4;
          Alcotest.test_case "closed form vs DP" `Quick
            test_uniform_closed_form_matches_dp;
          Alcotest.test_case "d=1 pages all" `Quick
            test_uniform_d1_pages_everything;
        ] );
      ( "lower-bound-instance",
        [
          Alcotest.test_case "OPT = 317/49" `Quick
            test_lower_bound_instance_optimal;
          Alcotest.test_case "heuristic = 320/49" `Quick
            test_lower_bound_instance_heuristic;
          Alcotest.test_case "constant 320/317" `Quick
            test_ratio_constant_is_320_317;
        ] );
      ( "approximation",
        [
          Alcotest.test_case "4/3 for m=2 d=2" `Slow test_ratio_m2_d2_within_4_3;
          Alcotest.test_case "e/(e-1) general" `Slow
            test_ratio_general_within_e;
          Alcotest.test_case "m=1 exactly optimal" `Slow
            test_single_device_greedy_is_optimal;
          Alcotest.test_case "Lemma 4.6 family" `Slow
            test_lemma46_same_sizes_family;
          qt prop_greedy_between_bounds;
          qt prop_lb_below_opt;
        ] );
      ( "expected-paging",
        [
          Alcotest.test_case "formula vs Monte Carlo" `Slow
            test_ep_formula_vs_monte_carlo;
          Alcotest.test_case "exact vs float" `Quick test_ep_exact_matches_float;
          Alcotest.test_case "longer never hurts" `Quick
            test_longer_strategies_weakly_better;
        ] );
    ]
