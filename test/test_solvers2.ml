(* Tests for the second wave of solvers: local search, the exact
   adaptive-within-order DP, the class-based exact solver, weighted
   paging costs, and the coarse DP for large instances. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

(* -------------------- Local search -------------------- *)

let test_hill_climb_never_worse_than_greedy () =
  let rng = Prob.Rng.create ~seed:201 in
  for _ = 1 to 20 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:8 ~d:3 in
    let greedy = (Greedy.solve inst).Order_dp.expected_paging in
    let ls = Local_search.hill_climb inst in
    check bool_t "descends" true
      (ls.Local_search.expected_paging <= greedy +. 1e-9);
    (* The reported EP must match Lemma 2.1 on the returned strategy. *)
    check (float_t 1e-9) "consistent"
      (Strategy.expected_paging inst ls.Local_search.strategy)
      ls.Local_search.expected_paging
  done

let test_hill_climb_escapes_weight_order () =
  (* On the §4.3 instance the heuristic is stuck at 320/49; one swap
     (cell 1 <-> cell 6) reaches the optimum 317/49. *)
  let seventh = 1.0 /. 7.0 in
  let p1 = [| 2.0 /. 7.0; seventh; seventh; seventh; seventh; seventh; 0.0; 0.0 |] in
  let p2 = [| 0.0; seventh; seventh; seventh; seventh; seventh; seventh; seventh |] in
  let inst = Instance.create ~d:2 [| p1; p2 |] in
  let ls = Local_search.hill_climb inst in
  check (float_t 1e-9) "reaches 317/49" (317.0 /. 49.0)
    ls.Local_search.expected_paging

let test_hill_climb_matches_optimal_often () =
  let rng = Prob.Rng.create ~seed:202 in
  let hits = ref 0 in
  let trials = 15 in
  for _ = 1 to trials do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:7 ~d:2 in
    let opt = (Optimal.exhaustive inst).Optimal.expected_paging in
    let ls = Local_search.hill_climb inst in
    check bool_t "never beats optimal" true
      (ls.Local_search.expected_paging >= opt -. 1e-9);
    if ls.Local_search.expected_paging <= opt +. 1e-9 then incr hits
  done;
  check bool_t "usually optimal on small instances" true (!hits >= trials - 2)

(* -------------------- Adaptive DP -------------------- *)

let test_adaptive_dp_single_device_equals_oblivious () =
  (* m = 1: no feedback before success, so the adaptive-within-order
     optimum equals the oblivious within-order optimum. *)
  let rng = Prob.Rng.create ~seed:211 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:1 ~c:8 ~d:3 in
    let obl = (Greedy.solve inst).Order_dp.expected_paging in
    let ada = Adaptive_dp.value inst in
    check (float_t 1e-9) "m=1" obl ada
  done

let test_adaptive_dp_bounds () =
  (* The adaptive-within-order family contains every fixed cut of the
     same order, so its optimum never exceeds the oblivious DP value.
     (The greedy-adaptive policy of {!Adaptive} is NOT comparable: it
     re-sorts the conditional instance each round, leaving the fixed
     order family.) *)
  let rng = Prob.Rng.create ~seed:212 in
  for _ = 1 to 12 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:7 ~d:3 in
    let oblivious = (Greedy.solve inst).Order_dp.expected_paging in
    let ada_opt = Adaptive_dp.value inst in
    check bool_t "ada_opt <= oblivious" true (ada_opt <= oblivious +. 1e-9)
  done

let test_adaptive_dp_policy_realizes_value () =
  (* Running the DP's policy through the independent outcome-enumeration
     evaluator must reproduce the DP's value exactly. *)
  let rng = Prob.Rng.create ~seed:213 in
  for _ = 1 to 8 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:3 in
    let r = Adaptive_dp.solve inst in
    let realized = Adaptive.evaluate_exact inst r.Adaptive_dp.policy in
    check (float_t 1e-9) "policy = value" r.Adaptive_dp.expected_paging realized
  done

let test_adaptive_dp_objectives () =
  let rng = Prob.Rng.create ~seed:214 in
  let inst = Instance.random_uniform_simplex rng ~m:3 ~c:6 ~d:2 in
  let any = Adaptive_dp.value ~objective:Objective.Find_any inst in
  let all = Adaptive_dp.value inst in
  check bool_t "find-any cheaper" true (any <= all +. 1e-9)

let test_unrestricted_dominates_everything () =
  (* unrestricted adaptive OPT <= within-order adaptive OPT and
     <= the oblivious exhaustive OPT. *)
  let rng = Prob.Rng.create ~seed:215 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:3 in
    let free = Adaptive_dp.unrestricted inst in
    let within = Adaptive_dp.value inst in
    let oblivious = (Optimal.exhaustive inst).Optimal.expected_paging in
    check bool_t "free <= within-order" true (free <= within +. 1e-9);
    check bool_t "free <= oblivious OPT" true (free <= oblivious +. 1e-9)
  done

let test_unrestricted_m1_equals_oblivious () =
  (* No useful feedback with one device: the unrestricted adaptive
     optimum collapses to the oblivious optimum. *)
  let rng = Prob.Rng.create ~seed:216 in
  for _ = 1 to 8 do
    let inst = Instance.random_uniform_simplex rng ~m:1 ~c:7 ~d:3 in
    let free = Adaptive_dp.unrestricted inst in
    let oblivious = (Optimal.exhaustive inst).Optimal.expected_paging in
    check (float_t 1e-9) "m=1 equality" oblivious free
  done

let test_unrestricted_guard () =
  let inst = Instance.all_uniform ~m:2 ~c:20 ~d:2 in
  match Adaptive_dp.unrestricted inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected 3^c guard"

let test_adaptive_dp_guard () =
  let inst = Instance.all_uniform ~m:12 ~c:40 ~d:3 in
  match Adaptive_dp.value inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected state-space guard"

(* -------------------- Class solver -------------------- *)

let test_classes_detection () =
  let inst =
    Instance.create ~d:2
      [| [| 0.25; 0.25; 0.25; 0.25 |]; [| 0.4; 0.1; 0.4; 0.1 |] |]
  in
  let cls = Class_solver.classes inst in
  check int_t "two classes" 2 (Array.length cls);
  check Alcotest.(array int) "class 0" [| 0; 2 |] cls.(0);
  check Alcotest.(array int) "class 1" [| 1; 3 |] cls.(1)

let test_class_solver_uniform_matches_exhaustive () =
  for c = 4 to 8 do
    for m = 1 to 3 do
      let inst = Instance.all_uniform ~m ~c ~d:2 in
      let a = (Class_solver.solve inst).Class_solver.expected_paging in
      let b = (Optimal.exhaustive inst).Optimal.expected_paging in
      check (float_t 1e-9) (Printf.sprintf "c=%d m=%d" c m) b a
    done
  done

let test_class_solver_matches_exhaustive_random_classes () =
  (* Build instances with duplicated columns; the class solver must
     find the same optimum as plain exhaustive search. *)
  let rng = Prob.Rng.create ~seed:221 in
  for _ = 1 to 10 do
    let m = 1 + Prob.Rng.int rng 2 in
    (* Three distinct column types spread over 9 cells. *)
    let base = Array.init m (fun _ -> Prob.Dist.uniform_simplex rng 3) in
    let p =
      Array.init m (fun i ->
          Prob.Dist.normalize (Array.init 9 (fun j -> base.(i).(j mod 3))))
    in
    let inst = Instance.create ~d:2 p in
    let a = (Class_solver.solve inst).Class_solver.expected_paging in
    let b = (Optimal.exhaustive inst).Optimal.expected_paging in
    check (float_t 1e-9) "class = exhaustive" b a
  done

let test_class_solver_on_433_instance () =
  (* The §4.3 instance has 3 cell classes; the class solver recovers the
     true optimum 317/49 quickly. *)
  let seventh = 1.0 /. 7.0 in
  let p1 = [| 2.0 /. 7.0; seventh; seventh; seventh; seventh; seventh; 0.0; 0.0 |] in
  let p2 = [| 0.0; seventh; seventh; seventh; seventh; seventh; seventh; seventh |] in
  let inst = Instance.create ~d:2 [| p1; p2 |] in
  let r = Class_solver.solve inst in
  check int_t "three classes" 3 r.Class_solver.classes;
  check (float_t 1e-9) "optimum" (317.0 /. 49.0) r.Class_solver.expected_paging

let test_class_solver_scales_past_exhaustive () =
  (* 60 uniform cells, d = 3: exhaustive is 3^60 — impossible; the class
     solver enumerates C(62,2) compositions. Cross-check with the
     greedy DP, which is optimal within the (here unique) order family
     and on uniform instances equals the true optimum. *)
  let inst = Instance.all_uniform ~m:2 ~c:60 ~d:3 in
  let a = Class_solver.solve inst in
  let g = (Greedy.solve inst).Order_dp.expected_paging in
  check int_t "one class" 1 a.Class_solver.classes;
  check (float_t 1e-9) "matches DP optimum" g a.Class_solver.expected_paging

let test_class_approximate_on_near_uniform () =
  (* Perturbed-uniform instance: thousands of distinct columns, but a
     coarse grid collapses them to one class; the snapped solution is
     near-optimal on the original. *)
  let rng = Prob.Rng.create ~seed:223 in
  let base = Instance.all_uniform ~m:2 ~c:40 ~d:3 in
  let inst =
    Instance.create ~d:3
      (Array.map (fun row -> Prob.Dist.perturb rng ~eps:0.02 row) base.Instance.p)
  in
  let approx = Class_solver.approximate inst ~grid:40 in
  let greedy = (Greedy.solve inst).Order_dp.expected_paging in
  check bool_t "few classes after snapping" true (approx.Class_solver.classes <= 3);
  check bool_t "close to greedy" true
    (approx.Class_solver.expected_paging <= greedy +. 0.5)

let test_class_approximate_grid_refines () =
  (* Finer grids cannot systematically hurt: at a very fine grid the
     snapped instance equals the original (probabilities land on the
     grid) and the result matches the exact class solve. *)
  let inst =
    Instance.create ~d:2 [| [| 0.5; 0.25; 0.25 |]; [| 0.25; 0.5; 0.25 |] |]
  in
  let exact = (Class_solver.solve inst).Class_solver.expected_paging in
  let fine = (Class_solver.approximate inst ~grid:4).Class_solver.expected_paging in
  check (float_t 1e-9) "grid 4 recovers exact" exact fine

let test_class_approximate_reports_true_ep () =
  let rng = Prob.Rng.create ~seed:224 in
  let base = Instance.all_uniform ~m:2 ~c:12 ~d:2 in
  let inst =
    Instance.create ~d:2
      (Array.map (fun row -> Prob.Dist.perturb rng ~eps:0.05 row) base.Instance.p)
  in
  let r = Class_solver.approximate inst ~grid:10 in
  check (float_t 1e-9) "EP evaluated on the original instance"
    (Strategy.expected_paging inst r.Class_solver.strategy)
    r.Class_solver.expected_paging

let test_class_solver_guard () =
  let rng = Prob.Rng.create ~seed:222 in
  (* All columns distinct: classes = c, candidates = d^... huge. *)
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:40 ~d:4 in
  match Class_solver.solve ~max_candidates:1000 inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected candidate guard"

(* -------------------- Weighted costs -------------------- *)

let test_expected_cost_unit_equals_paging () =
  let rng = Prob.Rng.create ~seed:231 in
  for _ = 1 to 10 do
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:8 ~d:3 in
    let s = (Greedy.solve inst).Order_dp.strategy in
    check (float_t 1e-9) "unit costs"
      (Strategy.expected_paging inst s)
      (Strategy.expected_cost inst ~cell_cost:(Array.make 8 1.0) s)
  done

let test_weighted_dp_reports_consistent_cost () =
  let rng = Prob.Rng.create ~seed:232 in
  for _ = 1 to 10 do
    let inst = Instance.random_zipf rng ~s:1.0 ~m:2 ~c:10 ~d:3 in
    let cell_cost = Array.init 10 (fun j -> 1.0 +. (0.3 *. float_of_int j)) in
    let order = Instance.weight_order inst in
    let r = Order_dp.solve ~cell_cost inst ~order in
    check (float_t 1e-9) "DP value = strategy cost"
      (Strategy.expected_cost inst ~cell_cost r.Order_dp.strategy)
      r.Order_dp.expected_paging
  done

let test_weighted_dp_optimal_within_order () =
  (* Verify against enumeration of all cuts under weighted cost. *)
  let rng = Prob.Rng.create ~seed:233 in
  for _ = 1 to 8 do
    let c = 7 in
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c ~d:3 in
    let cell_cost = Array.init c (fun j -> 0.5 +. float_of_int ((j * 7) mod 5)) in
    let order = Instance.weight_order inst in
    let dp = Order_dp.solve ~cell_cost inst ~order in
    let best = ref infinity in
    let rec go parts remaining slots =
      if slots = 1 then begin
        if remaining >= 1 then begin
          let sizes = Array.of_list (List.rev (remaining :: parts)) in
          let s = Strategy.of_sizes ~order ~sizes in
          let v = Strategy.expected_cost inst ~cell_cost s in
          if v < !best then best := v
        end
      end
      else
        for v = 1 to remaining - slots + 1 do
          go (v :: parts) (remaining - v) (slots - 1)
        done
    in
    go [] c 3;
    check (float_t 1e-9) "weighted DP optimal" !best dp.Order_dp.expected_paging
  done

let test_weighted_dp_prefers_cheap_cells () =
  (* Two cells with equal probability but very different costs: the
     expensive one should be deferred to the last round. *)
  let inst =
    Instance.create ~d:2 [| [| 0.45; 0.45; 0.05; 0.05 |] |]
  in
  let cell_cost = [| 1.0; 50.0; 1.0; 1.0 |] in
  let order = [| 0; 1; 2; 3 |] in
  let r = Order_dp.solve ~cell_cost inst ~order in
  let first = (Strategy.groups r.Order_dp.strategy).(0) in
  check bool_t "expensive cell not in round 1" true
    (not (Array.mem 1 first))

(* -------------------- Coarse DP -------------------- *)

let test_coarse_matches_full_when_block_1 () =
  let rng = Prob.Rng.create ~seed:241 in
  for _ = 1 to 8 do
    let inst = Instance.random_zipf rng ~s:1.0 ~m:2 ~c:12 ~d:3 in
    let order = Instance.weight_order inst in
    let full = Order_dp.solve inst ~order in
    let coarse = Order_dp.solve_coarse ~block:1 inst ~order in
    check (float_t 1e-9) "block=1 is exact" full.Order_dp.expected_paging
      coarse.Order_dp.expected_paging
  done

let test_coarse_close_to_full () =
  let rng = Prob.Rng.create ~seed:242 in
  let inst = Instance.random_zipf rng ~s:1.1 ~m:2 ~c:200 ~d:4 in
  let order = Instance.weight_order inst in
  let full = Order_dp.solve inst ~order in
  let coarse = Order_dp.solve_coarse ~block:8 inst ~order in
  check bool_t "coarse >= full" true
    (coarse.Order_dp.expected_paging >= full.Order_dp.expected_paging -. 1e-9);
  check bool_t "within 3%" true
    (coarse.Order_dp.expected_paging
    <= full.Order_dp.expected_paging *. 1.03)

let test_coarse_reported_ep_is_real () =
  let rng = Prob.Rng.create ~seed:243 in
  let inst = Instance.random_zipf rng ~s:1.0 ~m:3 ~c:100 ~d:5 in
  let order = Instance.weight_order inst in
  let coarse = Order_dp.solve_coarse ~block:10 inst ~order in
  check (float_t 1e-9) "EP matches Lemma 2.1"
    (Strategy.expected_paging inst coarse.Order_dp.strategy)
    coarse.Order_dp.expected_paging

let test_coarse_huge_instance_runs () =
  (* 20k cells: the full DP would need ~d*c^2 = 1.6e9 steps; coarse with
     block 256 runs in milliseconds. *)
  let c = 20_000 in
  let rng = Prob.Rng.create ~seed:244 in
  let inst = Instance.random_zipf rng ~s:1.05 ~m:2 ~c ~d:4 in
  let order = Instance.weight_order inst in
  let t0 = Sys.time () in
  let r = Order_dp.solve_coarse ~block:256 inst ~order in
  let elapsed = Sys.time () -. t0 in
  check bool_t "fast" true (elapsed < 5.0);
  check bool_t "meaningful saving" true
    (r.Order_dp.expected_paging < 0.9 *. float_of_int c)

let prop_coarse_never_beats_full =
  QCheck.Test.make ~name:"coarse DP >= full DP (same order)" ~count:30
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let c = 20 + Prob.Rng.int rng 40 in
      let d = 2 + Prob.Rng.int rng 3 in
      let inst = Instance.random_uniform_simplex rng ~m:2 ~c ~d in
      let order = Instance.weight_order inst in
      let full = (Order_dp.solve inst ~order).Order_dp.expected_paging in
      let coarse =
        (Order_dp.solve_coarse ~block:4 inst ~order).Order_dp.expected_paging
      in
      coarse >= full -. 1e-9)

let () =
  Alcotest.run "solvers2"
    [
      ( "local-search",
        [
          Alcotest.test_case "never worse than greedy" `Quick
            test_hill_climb_never_worse_than_greedy;
          Alcotest.test_case "escapes weight order (317/49)" `Quick
            test_hill_climb_escapes_weight_order;
          Alcotest.test_case "usually optimal small" `Slow
            test_hill_climb_matches_optimal_often;
        ] );
      ( "adaptive-dp",
        [
          Alcotest.test_case "m=1 equals oblivious" `Quick
            test_adaptive_dp_single_device_equals_oblivious;
          Alcotest.test_case "ordering of optima" `Slow test_adaptive_dp_bounds;
          Alcotest.test_case "policy realizes value" `Slow
            test_adaptive_dp_policy_realizes_value;
          Alcotest.test_case "objectives" `Quick test_adaptive_dp_objectives;
          Alcotest.test_case "state guard" `Quick test_adaptive_dp_guard;
          Alcotest.test_case "unrestricted dominates" `Slow
            test_unrestricted_dominates_everything;
          Alcotest.test_case "unrestricted m=1" `Slow
            test_unrestricted_m1_equals_oblivious;
          Alcotest.test_case "unrestricted guard" `Quick
            test_unrestricted_guard;
        ] );
      ( "class-solver",
        [
          Alcotest.test_case "class detection" `Quick test_classes_detection;
          Alcotest.test_case "uniform = exhaustive" `Slow
            test_class_solver_uniform_matches_exhaustive;
          Alcotest.test_case "duplicated columns = exhaustive" `Slow
            test_class_solver_matches_exhaustive_random_classes;
          Alcotest.test_case "solves the 4.3 instance" `Quick
            test_class_solver_on_433_instance;
          Alcotest.test_case "scales past exhaustive" `Quick
            test_class_solver_scales_past_exhaustive;
          Alcotest.test_case "candidate guard" `Quick test_class_solver_guard;
          Alcotest.test_case "approximate near-uniform" `Quick
            test_class_approximate_on_near_uniform;
          Alcotest.test_case "approximate fine grid" `Quick
            test_class_approximate_grid_refines;
          Alcotest.test_case "approximate true EP" `Quick
            test_class_approximate_reports_true_ep;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "unit costs reduce" `Quick
            test_expected_cost_unit_equals_paging;
          Alcotest.test_case "DP value consistent" `Quick
            test_weighted_dp_reports_consistent_cost;
          Alcotest.test_case "optimal within order" `Slow
            test_weighted_dp_optimal_within_order;
          Alcotest.test_case "defers expensive cells" `Quick
            test_weighted_dp_prefers_cheap_cells;
        ] );
      ( "coarse-dp",
        [
          Alcotest.test_case "block=1 exact" `Quick
            test_coarse_matches_full_when_block_1;
          Alcotest.test_case "close to full" `Quick test_coarse_close_to_full;
          Alcotest.test_case "reported EP real" `Quick
            test_coarse_reported_ep_is_real;
          Alcotest.test_case "20k cells" `Slow test_coarse_huge_instance_runs;
          qt prop_coarse_never_beats_full;
        ] );
    ]
