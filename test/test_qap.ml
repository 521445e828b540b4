(* Tests for the QAP substrate, the §5.1 Conference-Call-to-QAP encoding,
   and the exact-rational DP. *)

module Q = Numeric.Rational

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

(* -------------------- QAP basics -------------------- *)

let small_qap () =
  Qap.create
    [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 1.0; 3.0 |]; [| 1.0; 0.0; 1.0 |] |]
    [| [| 2.0; 0.0; 1.0 |]; [| 1.0; 1.0; 0.0 |]; [| 0.0; 2.0; 2.0 |] |]

let test_qap_objective_hand_computed () =
  (* 1x1: objective = a00 * b00. *)
  let t = Qap.create [| [| 3.0 |] |] [| [| 5.0 |] |] in
  check (float_t 1e-12) "1x1" 15.0 (Qap.objective t [| 0 |])

let test_qap_objective_permutation_dependence () =
  let t = small_qap () in
  let id = Qap.objective t [| 0; 1; 2 |] in
  let swapped = Qap.objective t [| 1; 0; 2 |] in
  check bool_t "different permutations differ" true (id <> swapped)

let test_qap_rejects_bad_perm () =
  let t = small_qap () in
  List.iter
    (fun perm ->
      match Qap.objective t perm with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad permutation accepted")
    [ [| 0; 1 |]; [| 0; 0; 1 |]; [| 0; 1; 3 |] ]

let test_qap_swap_delta_consistency () =
  (* local_search must end at a 2-swap local max whose objective matches
     a from-scratch evaluation. *)
  let rng = Prob.Rng.create ~seed:401 in
  for _ = 1 to 20 do
    let n = 4 + Prob.Rng.int rng 4 in
    let random_matrix () =
      Array.init n (fun _ -> Array.init n (fun _ -> Prob.Rng.unit_float rng))
    in
    let t = Qap.create (random_matrix ()) (random_matrix ()) in
    let start = Array.init n (fun i -> i) in
    Prob.Rng.shuffle rng start;
    let perm, value, _ = Qap.local_search t ~start in
    check (float_t 1e-9) "value consistent" (Qap.objective t perm) value;
    (* No single swap improves. *)
    for x = 0 to n - 1 do
      for y = x + 1 to n - 1 do
        let p2 = Array.copy perm in
        let tmp = p2.(x) in
        p2.(x) <- p2.(y);
        p2.(y) <- tmp;
        check bool_t "local max" true (Qap.objective t p2 <= value +. 1e-9)
      done
    done
  done

let test_qap_local_search_reaches_exhaustive_often () =
  let rng = Prob.Rng.create ~seed:402 in
  let hits = ref 0 in
  for _ = 1 to 10 do
    let n = 5 in
    let random_matrix () =
      Array.init n (fun _ -> Array.init n (fun _ -> Prob.Rng.unit_float rng))
    in
    let t = Qap.create (random_matrix ()) (random_matrix ()) in
    let _, annealed = Qap.anneal t rng ~steps:3000 ~t0:1.0 ~cooling:0.999 in
    let _, best = Qap.exhaustive t in
    check bool_t "never above optimum" true (annealed <= best +. 1e-9);
    if annealed >= best -. 1e-9 then incr hits
  done;
  check bool_t "usually optimal at n=5" true (!hits >= 8)

(* -------------------- CC(m=2) <-> QAP encoding -------------------- *)

let random_m2 rng c d = Instance.random_uniform_simplex rng ~m:2 ~c ~d

let perm_of_strategy ~c strategy =
  (* Cells of round r occupy that round's slot block, in group order. *)
  let perm = Array.make c 0 in
  let slot = ref 0 in
  Array.iter
    (fun group ->
      Array.iter
        (fun cell ->
          perm.(cell) <- !slot;
          incr slot)
        group)
    (Strategy.groups strategy);
  perm

let prop_qap_objective_equals_ep =
  QCheck.Test.make
    ~name:"QAP objective = c - EP for every m=2 strategy" ~count:100
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let c = 4 + Prob.Rng.int rng 5 in
      let d = 2 + Prob.Rng.int rng 2 in
      let d = Stdlib.min d c in
      let inst = random_m2 rng c d in
      (* Random strategy with d groups. *)
      let order = Array.init c (fun j -> j) in
      Prob.Rng.shuffle rng order;
      let sizes =
        let remaining = c - d in
        let extra = Array.make d 0 in
        for _ = 1 to remaining do
          let r = Prob.Rng.int rng d in
          extra.(r) <- extra.(r) + 1
        done;
        Array.map (fun e -> 1 + e) extra
      in
      let strategy = Strategy.of_sizes ~order ~sizes in
      let qap = Qap.of_conference inst ~sizes in
      let perm = perm_of_strategy ~c strategy in
      let via_qap =
        Qap.ep_of_objective inst (Qap.objective qap perm)
      in
      abs_float (via_qap -. Strategy.expected_paging inst strategy) < 1e-9)

let test_qap_solver_matches_exhaustive () =
  let rng = Prob.Rng.create ~seed:403 in
  for _ = 1 to 8 do
    let inst = random_m2 rng 6 2 in
    let _, qap_ep = Qap.solve_conference_m2 ~rng inst in
    let opt = (Optimal.exhaustive inst).Strategy.expected_paging in
    check bool_t "never better than optimum" true (qap_ep >= opt -. 1e-9);
    check bool_t "close to optimum" true (qap_ep <= opt +. 0.15)
  done

let test_qap_solver_escapes_weight_order () =
  (* On the §4.3 instance the QAP route (unconstrained by cell order)
     should find the true optimum 317/49, beating the heuristic. *)
  let seventh = 1.0 /. 7.0 in
  let p1 = [| 2.0 /. 7.0; seventh; seventh; seventh; seventh; seventh; 0.0; 0.0 |] in
  let p2 = [| 0.0; seventh; seventh; seventh; seventh; seventh; seventh; seventh |] in
  let inst = Instance.create ~d:2 [| p1; p2 |] in
  let strategy, ep = Qap.solve_conference_m2 inst in
  check (float_t 1e-9) "optimum via QAP" (317.0 /. 49.0) ep;
  check bool_t "valid strategy" true (Strategy.validate ~c:8 strategy = Ok ())

let test_qap_solver_requires_m2 () =
  let inst = Instance.all_uniform ~m:3 ~c:4 ~d:2 in
  match Qap.solve_conference_m2 inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "m=3 accepted"

(* -------------------- Exact-rational DP -------------------- *)

let lb_instance_exact () =
  let s = Q.of_ints 1 7 and z = Q.zero in
  Instance.Exact.create ~d:2
    [|
      [| Q.of_ints 2 7; s; s; s; s; s; z; z |];
      [| z; s; s; s; s; s; s; s |];
    |]

let test_exact_dp_heuristic_is_320_49 () =
  let strategy, ep = Exact_dp.greedy (lb_instance_exact ()) in
  check bool_t "exact heuristic EP" true (Q.equal ep (Q.of_ints 320 49));
  check Alcotest.(array int) "first group" [| 0; 1; 2; 3; 4 |]
    (Strategy.groups strategy).(0)

let test_exact_dp_matches_float_dp () =
  (* On random rational instances the exact DP and the float DP must
     agree (away from ties). *)
  let rng = Prob.Rng.create ~seed:404 in
  for _ = 1 to 10 do
    let c = 6 and d = 3 and m = 2 in
    (* Random rational rows with denominator 97 (prime, no exact float
       representation -> exercises rounding). *)
    let rows_q =
      Array.init m (fun _ ->
          let cuts = Array.init c (fun _ -> 1 + Prob.Rng.int rng 30) in
          let total = Array.fold_left ( + ) 0 cuts in
          Array.map (fun v -> Q.of_ints v total) cuts)
    in
    let exact = Instance.Exact.create ~d rows_q in
    let inst = Instance.Exact.to_float exact in
    let _, ep = Exact_dp.greedy exact in
    let fr = Greedy.solve inst in
    check (float_t 1e-6) "EP agreement" (Q.to_float ep)
      fr.Strategy.expected_paging
  done

let test_exact_dp_consistent_with_strategy_eval () =
  let exact = lb_instance_exact () in
  let strategy, ep = Exact_dp.greedy exact in
  let direct = Strategy.expected_paging_exact exact strategy in
  check bool_t "DP value = strategy evaluation" true (Q.equal direct ep)

let test_exact_dp_objectives () =
  let exact = lb_instance_exact () in
  let all = snd (Exact_dp.greedy exact) in
  let any = snd (Exact_dp.greedy ~objective:Objective.Find_any exact) in
  check bool_t "find-any cheaper" true (Q.compare any all <= 0)

let () =
  Alcotest.run "qap"
    [
      ( "qap-core",
        [
          Alcotest.test_case "objective 1x1" `Quick test_qap_objective_hand_computed;
          Alcotest.test_case "permutation dependence" `Quick
            test_qap_objective_permutation_dependence;
          Alcotest.test_case "rejects bad perm" `Quick test_qap_rejects_bad_perm;
          Alcotest.test_case "swap delta / local max" `Slow
            test_qap_swap_delta_consistency;
          Alcotest.test_case "annealing near-optimal" `Slow
            test_qap_local_search_reaches_exhaustive_often;
        ] );
      ( "cc-to-qap",
        [
          qt prop_qap_objective_equals_ep;
          Alcotest.test_case "matches exhaustive" `Slow
            test_qap_solver_matches_exhaustive;
          Alcotest.test_case "finds 317/49" `Quick
            test_qap_solver_escapes_weight_order;
          Alcotest.test_case "requires m=2" `Quick test_qap_solver_requires_m2;
        ] );
      ( "exact-dp",
        [
          Alcotest.test_case "heuristic = 320/49 exactly" `Quick
            test_exact_dp_heuristic_is_320_49;
          Alcotest.test_case "matches float DP" `Quick test_exact_dp_matches_float_dp;
          Alcotest.test_case "consistent with evaluation" `Quick
            test_exact_dp_consistent_with_strategy_eval;
          Alcotest.test_case "objectives" `Quick test_exact_dp_objectives;
        ] );
    ]
