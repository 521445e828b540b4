(* Robustness: parsers and validators must never crash with anything but
   Invalid_argument on malformed input, and round-trips must be stable.
   Plus regression pins for a few solved instances so accidental
   behaviour changes are caught. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

(* -------------------- parser fuzzing -------------------- *)

let garbage_string =
  QCheck.map
    (fun l -> String.concat "" (List.map (String.make 1) l))
    (QCheck.list_of_size (QCheck.Gen.int_range 0 60)
       (QCheck.oneofl
          [ '0'; '1'; '9'; ' '; '\n'; '.'; '-'; '/'; 'x'; '#'; 'e'; '+' ]))

let prop_instance_of_string_total =
  QCheck.Test.make ~name:"Instance.of_string: Invalid_argument or success"
    ~count:500 garbage_string (fun s ->
      match Instance.of_string s with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

let prop_rational_of_string_total =
  QCheck.Test.make ~name:"Rational.of_string: controlled failures" ~count:500
    garbage_string (fun s ->
      match Numeric.Rational.of_string s with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception Division_by_zero -> true
      | exception _ -> false)

let prop_bigint_of_string_total =
  QCheck.Test.make ~name:"Bigint.of_string: Invalid_argument or success"
    ~count:500 garbage_string (fun s ->
      match Numeric.Bigint.of_string s with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

let prop_solver_spec_total =
  QCheck.Test.make ~name:"Solver.spec_of_string never raises" ~count:500
    garbage_string (fun s ->
      match Solver.spec_of_string s with
      | Ok _ | Error _ -> true)

let prop_instance_roundtrip_stable =
  QCheck.Test.make ~name:"instance serialization round-trips" ~count:100
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 1 12))
    (fun (m, c) ->
      let rng = Prob.Rng.create ~seed:((m * 1000) + c) in
      let d = 1 + Prob.Rng.int rng c in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let inst' = Instance.of_string (Instance.to_string inst) in
      let inst'' = Instance.of_string (Instance.to_string inst') in
      (* Fixed point after one round-trip ("%.17g" is lossless). *)
      Instance.to_string inst' = Instance.to_string inst''
      && inst'.Instance.p = inst.Instance.p)

(* -------------------- solver agreement cross-checks -------------------- *)

let prop_all_solvers_agree_on_validity =
  QCheck.Test.make ~name:"every solver returns a valid strategy" ~count:50
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let m = 1 + Prob.Rng.int rng 3 in
      let c = 3 + Prob.Rng.int rng 5 in
      let d = Stdlib.min c (1 + Prob.Rng.int rng 3) in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      List.for_all
        (fun spec ->
          match Solver.solve spec inst with
          | outcome ->
            Strategy.validate ~c outcome.Solver.strategy = Ok ()
            && outcome.Solver.expected_paging >= 1.0 -. 1e-9
            && outcome.Solver.expected_paging <= float_of_int c +. 1e-9
          | exception Invalid_argument _ -> true)
        (Solver.Class_based :: Solver.basic_specs))

let prop_exact_methods_agree =
  QCheck.Test.make ~name:"exhaustive / bnb / class solver agree" ~count:30
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let m = 1 + Prob.Rng.int rng 2 in
      let c = 4 + Prob.Rng.int rng 3 in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d:2 in
      let a = (Optimal.exhaustive inst).Strategy.expected_paging in
      let b = (Optimal.branch_and_bound_d2 inst).Strategy.expected_paging in
      let cl = (Class_solver.solve inst).Strategy.expected_paging in
      abs_float (a -. b) < 1e-9 && abs_float (a -. cl) < 1e-9)

(* -------------------- simulator config validation -------------------- *)

let base_sim_config () =
  let hex = Cellsim.Hex.create ~rows:4 ~cols:4 in
  {
    Cellsim.Sim.hex;
    mobility = Cellsim.Mobility.random_walk hex ~stay:0.4;
    areas = Cellsim.Location_area.grid hex ~block_rows:2 ~block_cols:2;
    users = 8;
    traffic =
      Cellsim.Traffic.create ~rate:0.4 ~group_size:(Cellsim.Traffic.Fixed 2)
        ~users:8;
    schemes = [ Cellsim.Sim.Blanket ];
    reporting = Cellsim.Reporting.Area;
    mobility_schedule = [];
    call_duration = 0.0;
    track_ongoing = true;
    faults = None;
    estimator = Cellsim.Sim.Live;
    aging = None;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    duration = 20.0;
    seed = 5;
  }

let rejects name config =
  match Cellsim.Sim.run config with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument _ -> ()

let test_sim_config_validation () =
  let base = base_sim_config () in
  rejects "zero users" { base with Cellsim.Sim.users = 0 };
  rejects "negative users" { base with Cellsim.Sim.users = -3 };
  rejects "no schemes" { base with Cellsim.Sim.schemes = [] };
  rejects "unsorted schedule"
    {
      base with
      Cellsim.Sim.mobility_schedule =
        [ 10.0, base.Cellsim.Sim.mobility; 5.0, base.Cellsim.Sim.mobility ];
    };
  rejects "decay zero" { base with Cellsim.Sim.profile_decay = 0.0 };
  rejects "decay above one" { base with Cellsim.Sim.profile_decay = 1.5 };
  rejects "smoothing zero" { base with Cellsim.Sim.profile_smoothing = 0.0 };
  rejects "negative duration" { base with Cellsim.Sim.duration = -1.0 };
  rejects "nan duration" { base with Cellsim.Sim.duration = Float.nan };
  rejects "bad page_loss"
    {
      base with
      Cellsim.Sim.faults =
        Some { Cellsim.Faults.none with Cellsim.Faults.page_loss = 1.0 };
    };
  rejects "bad detect_q"
    {
      base with
      Cellsim.Sim.faults =
        Some { Cellsim.Faults.none with Cellsim.Faults.detect_q = 0.0 };
    };
  rejects "bad retry cycles"
    {
      base with
      Cellsim.Sim.faults =
        Some
          {
            Cellsim.Faults.none with
            Cellsim.Faults.retry =
              Cellsim.Faults.Repeat { cycles = 0; backoff = 0 };
          };
    }

let prop_sim_fuzzed_knobs_controlled =
  (* Random (possibly invalid) numeric knobs: Sim.run either runs to
     completion or rejects with Invalid_argument — nothing else. *)
  QCheck.Test.make ~name:"Sim.run: Invalid_argument or success" ~count:40
    (QCheck.triple (QCheck.int_range (-2) 6)
       (QCheck.float_range (-0.5) 1.5)
       (QCheck.float_range (-0.5) 1.5))
    (fun (users, decay, fault_p) ->
      let base = base_sim_config () in
      let config =
        {
          base with
          Cellsim.Sim.users;
          traffic =
            Cellsim.Traffic.create ~rate:0.4
              ~group_size:(Cellsim.Traffic.Fixed 2)
              ~users:(Stdlib.max 2 users);
          profile_decay = decay;
          duration = 5.0;
          faults =
            Some
              {
                Cellsim.Faults.none with
                Cellsim.Faults.page_loss = fault_p;
                detect_q = 1.0 -. (fault_p /. 4.0);
              };
        }
      in
      match Cellsim.Sim.run config with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

let prop_faults_retry_of_string_total =
  QCheck.Test.make ~name:"Faults.retry_of_string never raises" ~count:500
    garbage_string (fun s ->
      match Cellsim.Faults.retry_of_string s with
      | Ok r ->
        (* Accepted specs round-trip through their printer. *)
        Cellsim.Faults.retry_of_string (Cellsim.Faults.retry_to_string r)
        = Ok r
      | Error _ -> true)

let prop_repeat_strategy_one_cycle_is_strategy =
  (* With cycles = 1 the re-paging schedule is exactly the strategy's
     own rounds — re-paging is a pure extension of clean paging. *)
  QCheck.Test.make ~name:"Miss.repeat_strategy ~cycles:1 = rounds" ~count:100
    (QCheck.int_range 1 1000000) (fun seed ->
      let rng = Prob.Rng.create ~seed in
      let c = 3 + Prob.Rng.int rng 6 in
      let d = 1 + Prob.Rng.int rng c in
      let inst = Instance.random_uniform_simplex rng ~m:1 ~c ~d in
      let strategy = (Greedy.solve inst).Strategy.strategy in
      let schedule = Miss.repeat_strategy strategy ~cycles:1 in
      schedule = Strategy.groups strategy)

(* -------------------- regression pins -------------------- *)

let test_regression_pins () =
  (* Deterministic instances with EP values pinned at the time the
     solvers were validated against exhaustive search. A change here
     means solver behaviour changed — investigate, don't just re-pin. *)
  let inst1 =
    Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |]; [| 0.1; 0.2; 0.7 |] |]
  in
  check (float_t 1e-9) "pin 1: greedy" 2.36
    (Greedy.solve inst1).Strategy.expected_paging;
  check (float_t 1e-9) "pin 1: optimal" 2.36
    (Optimal.exhaustive inst1).Strategy.expected_paging;

  (* Seeded-generator pin: ties the PRNG, the Zipf generator and the DP
     together; pinned from the implementation validated against
     exhaustive search. *)
  let rng = Prob.Rng.create ~seed:424242 in
  let inst2 = Instance.random_zipf rng ~s:1.0 ~m:2 ~c:12 ~d:3 in
  check (float_t 1e-12) "pin 2: greedy on seeded zipf" 7.504556700877087
    (Greedy.solve inst2).Strategy.expected_paging

let test_uniform_pins () =
  (* Closed-form pins across a range of (c, d). *)
  List.iter
    (fun (c, d, expected) ->
      check (float_t 1e-9)
        (Printf.sprintf "uniform c=%d d=%d" c d)
        expected
        (Single.uniform_ep ~c ~d))
    [
      4, 2, 3.0;
      8, 2, 6.0;
      6, 3, 4.0;
      (* c(d+1)/(2d) for d | c: 12*(4+1)/8 = 7.5 *)
      12, 4, 7.5;
      9, 3, 6.0;
    ]

let test_paper_constant_pins () =
  check (float_t 1e-12) "e/(e-1)" 1.5819767068693265
    Greedy.approximation_factor;
  check (float_t 1e-12) "4/3" (4.0 /. 3.0) Greedy.approximation_factor_m2d2;
  check bool_t "320/317 < 4/3" true
    (Greedy.ratio_lower_bound < Greedy.approximation_factor_m2d2)

let () =
  Alcotest.run "robustness"
    [
      ( "fuzz",
        [
          qt prop_instance_of_string_total;
          qt prop_rational_of_string_total;
          qt prop_bigint_of_string_total;
          qt prop_solver_spec_total;
          qt prop_instance_roundtrip_stable;
        ] );
      ( "cross-checks",
        [ qt prop_all_solvers_agree_on_validity; qt prop_exact_methods_agree ]
      );
      ( "sim-validation",
        [
          Alcotest.test_case "config validation" `Quick
            test_sim_config_validation;
          qt prop_sim_fuzzed_knobs_controlled;
          qt prop_faults_retry_of_string_total;
          qt prop_repeat_strategy_one_cycle_is_strategy;
        ] );
      ( "regression-pins",
        [
          Alcotest.test_case "instance pins" `Quick test_regression_pins;
          Alcotest.test_case "uniform pins" `Quick test_uniform_pins;
          Alcotest.test_case "constants" `Quick test_paper_constant_pins;
        ] );
    ]
