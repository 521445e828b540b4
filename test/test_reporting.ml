(* Tests for reporting policies and the extended simulator features
   (diffusion estimator, busy users). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let hex () = Cellsim.Hex.create ~rows:6 ~cols:6
let areas h = Cellsim.Location_area.grid h ~block_rows:3 ~block_cols:3

(* -------------------- Reporting policies -------------------- *)

let test_area_policy_reports_on_crossing () =
  let h = hex () in
  let a = areas h in
  let c00 = Cellsim.Hex.index h ~row:0 ~col:0 in
  let c01 = Cellsim.Hex.index h ~row:0 ~col:1 in
  let c03 = Cellsim.Hex.index h ~row:0 ~col:3 in
  let st = Cellsim.Reporting.init Cellsim.Reporting.Area ~cell:c00 ~now:0.0 in
  check bool_t "within area" false
    (Cellsim.Reporting.on_move Cellsim.Reporting.Area ~areas:a ~hex:h st
       ~from_cell:c00 ~to_cell:c01 ~now:1.0);
  check bool_t "crossing" true
    (Cellsim.Reporting.on_move Cellsim.Reporting.Area ~areas:a ~hex:h st
       ~from_cell:c01 ~to_cell:c03 ~now:2.0);
  check int_t "reset to new cell" c03 (Cellsim.Reporting.last_reported_cell st)

let test_movement_policy_counts_moves () =
  let h = hex () in
  let a = areas h in
  let policy = Cellsim.Reporting.Movement 3 in
  let st = Cellsim.Reporting.init policy ~cell:0 ~now:0.0 in
  let step from_cell to_cell now =
    Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell ~to_cell ~now
  in
  check bool_t "move 1" false (step 0 1 1.0);
  check bool_t "stay doesn't count" false (step 1 1 2.0);
  check bool_t "move 2" false (step 1 2 3.0);
  check bool_t "move 3 reports" true (step 2 3 4.0);
  check int_t "reset" 3 (Cellsim.Reporting.last_reported_cell st)

let test_distance_policy_reports_at_distance () =
  let h = hex () in
  let a = areas h in
  let policy = Cellsim.Reporting.Distance 2 in
  let start = Cellsim.Hex.index h ~row:2 ~col:2 in
  let st = Cellsim.Reporting.init policy ~cell:start ~now:0.0 in
  (* Walk east: distance 1 then 2. *)
  let c1 = Cellsim.Hex.index h ~row:2 ~col:3 in
  let c2 = Cellsim.Hex.index h ~row:2 ~col:4 in
  check bool_t "distance 1" false
    (Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell:start
       ~to_cell:c1 ~now:1.0);
  check bool_t "distance 2 reports" true
    (Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell:c1
       ~to_cell:c2 ~now:2.0)

let test_time_policy_reports_periodically () =
  let h = hex () in
  let a = areas h in
  let policy = Cellsim.Reporting.Time 2 in
  let st = Cellsim.Reporting.init policy ~cell:5 ~now:0.0 in
  check bool_t "tick 1" false
    (Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell:5
       ~to_cell:5 ~now:1.0);
  check bool_t "tick 2 reports even when parked" true
    (Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell:5
       ~to_cell:5 ~now:2.0)

let test_uncertainty_contains_truth_random_walks () =
  (* The key invariant, fuzzed: walk randomly under each policy; the
     true cell must always be inside the uncertainty set. *)
  let h = hex () in
  let a = areas h in
  let rng = Prob.Rng.create ~seed:301 in
  List.iter
    (fun policy ->
      for _ = 1 to 20 do
        let cell = ref (Prob.Rng.int rng (Cellsim.Hex.cells h)) in
        let st = Cellsim.Reporting.init policy ~cell:!cell ~now:0.0 in
        for t = 1 to 50 do
          let from_cell = !cell in
          let neighbors =
            Array.of_list (from_cell :: Cellsim.Hex.neighbors h from_cell)
          in
          let to_cell = Prob.Rng.choose rng neighbors in
          cell := to_cell;
          ignore
            (Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell
               ~to_cell ~now:(float_of_int t));
          let u =
            Cellsim.Reporting.uncertainty policy ~areas:a ~hex:h st
              ~now:(float_of_int t)
          in
          if not (Array.mem to_cell u) then
            Alcotest.failf "%s: true cell escaped the uncertainty set"
              (Cellsim.Reporting.to_string policy)
        done
      done)
    [
      Cellsim.Reporting.Area;
      Cellsim.Reporting.Movement 2;
      Cellsim.Reporting.Movement 5;
      Cellsim.Reporting.Distance 2;
      Cellsim.Reporting.Distance 4;
      Cellsim.Reporting.Time 3;
    ]

let test_observe_page_shrinks_uncertainty () =
  let h = hex () in
  let a = areas h in
  let policy = Cellsim.Reporting.Time 10 in
  let st = Cellsim.Reporting.init policy ~cell:0 ~now:0.0 in
  for t = 1 to 5 do
    ignore
      (Cellsim.Reporting.on_move policy ~areas:a ~hex:h st ~from_cell:0
         ~to_cell:0 ~now:(float_of_int t))
  done;
  let before =
    Array.length (Cellsim.Reporting.uncertainty policy ~areas:a ~hex:h st ~now:5.0)
  in
  Cellsim.Reporting.observe_page st ~cell:0 ~now:5.0;
  let after =
    Array.length (Cellsim.Reporting.uncertainty policy ~areas:a ~hex:h st ~now:5.0)
  in
  check bool_t "page collapses uncertainty" true (after < before);
  check int_t "down to one cell" 1 after

let test_policy_validation () =
  check bool_t "bad movement" true
    (Result.is_error (Cellsim.Reporting.validate (Cellsim.Reporting.Movement 0)));
  check bool_t "area fine" true
    (Cellsim.Reporting.validate Cellsim.Reporting.Area = Ok ())

(* The parser's one error, for any spelling it does not accept. *)
let bad_policy =
  Error "reporting must be area | movement-<k> | distance-<k> | time-<k>"

(* [of_string] inverts [to_string] on every valid policy, and refuses a
   parameter [validate] refuses. *)
let prop_policy_round_trip =
  let open Cellsim.Reporting in
  QCheck.Test.make ~name:"of_string inverts to_string" ~count:500
    QCheck.(pair (int_range 0 3) (int_range (-3) 1000))
    (fun (kind, k) ->
      let p =
        match kind with
        | 0 -> Area
        | 1 -> Movement k
        | 2 -> Distance k
        | _ -> Time k
      in
      of_string (to_string p)
      = if validate p = Ok () then Ok p else bad_policy)

let test_policy_spellings () =
  let open Cellsim.Reporting in
  List.iter
    (fun (s, want) -> check bool_t s true (of_string s = want))
    [
      ("AREA", Ok Area); ("move-2", Ok (Movement 2));
      ("Movement-3", Ok (Movement 3)); ("dist-4", Ok (Distance 4));
      ("TIME-5", Ok (Time 5)); ("time-x", bad_policy);
      ("movement--1", bad_policy); ("area-1", bad_policy); ("", bad_policy);
    ]

(* -------------------- Simulator with new features -------------------- *)

let base_config schemes reporting call_duration =
  let h = Cellsim.Hex.create ~rows:6 ~cols:6 in
  {
    Cellsim.Sim.hex = h;
    mobility = Cellsim.Mobility.random_walk h ~stay:0.4;
    areas = Cellsim.Location_area.grid h ~block_rows:3 ~block_cols:3;
    users = 20;
    traffic =
      Cellsim.Traffic.create ~rate:0.4 ~group_size:(Cellsim.Traffic.Fixed 2)
        ~users:20;
    schemes;
    reporting;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule = [];
    call_duration;
    track_ongoing = true;
    faults = None;
    estimator = Cellsim.Sim.Live;
    aging = None;
    duration = 150.0;
    seed = 99;
  }

let test_sim_runs_under_each_policy () =
  List.iter
    (fun reporting ->
      let config =
        base_config
          [ Cellsim.Sim.Blanket; Cellsim.Sim.Selective 2 ]
          reporting 0.0
      in
      let r = Cellsim.Sim.run config in
      check bool_t
        (Cellsim.Reporting.to_string reporting ^ " calls")
        true
        (r.Cellsim.Sim.total_calls > 5);
      (* Blanket pages at least as much as selective under any policy. *)
      match r.Cellsim.Sim.per_scheme with
      | [ blanket; selective ] ->
        check bool_t "selective <= blanket" true
          (selective.Cellsim.Sim.cells_paged
          <= blanket.Cellsim.Sim.cells_paged)
      | _ -> Alcotest.fail "two schemes expected")
    [
      Cellsim.Reporting.Area;
      Cellsim.Reporting.Movement 3;
      Cellsim.Reporting.Distance 3;
      Cellsim.Reporting.Time 4;
    ]

let test_tighter_reporting_means_more_updates_less_paging () =
  let run k =
    let r =
      Cellsim.Sim.run
        (base_config [ Cellsim.Sim.Blanket ] (Cellsim.Reporting.Movement k) 0.0)
    in
    let b = List.hd r.Cellsim.Sim.per_scheme in
    ( r.Cellsim.Sim.updates,
      float_of_int b.Cellsim.Sim.cells_paged
      /. float_of_int (Stdlib.max 1 b.Cellsim.Sim.calls) )
  in
  let updates1, paging1 = run 1 in
  let updates6, paging6 = run 6 in
  check bool_t "k=1 reports more" true (updates1 > updates6);
  check bool_t "k=1 pages fewer cells" true (paging1 < paging6)

let test_diffuse_scheme_beats_counts_under_time_policy () =
  (* Under a slack reporting policy the decayed-count profile is badly
     stale; diffusing the last known cell through the mobility model is
     the better belief. Compare expected paging per call. *)
  let config =
    base_config
      [ Cellsim.Sim.Selective 3; Cellsim.Sim.Selective_diffuse 3 ]
      (Cellsim.Reporting.Time 6) 0.0
  in
  let r = Cellsim.Sim.run config in
  match r.Cellsim.Sim.per_scheme with
  | [ counts; diffuse ] ->
    let per_call s =
      float_of_int s.Cellsim.Sim.cells_paged
      /. float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls)
    in
    check bool_t "diffusion estimator pages fewer true cells" true
      (per_call diffuse <= per_call counts +. 0.5)
  | _ -> Alcotest.fail "two schemes expected"

let test_busy_users_reduce_paging () =
  (* With call durations, participants are tracked during calls and
     conferences among recently-seen users are cheap. *)
  let off = Cellsim.Sim.run (base_config [ Cellsim.Sim.Selective 2 ] Cellsim.Reporting.Area 0.0) in
  let on = Cellsim.Sim.run (base_config [ Cellsim.Sim.Selective 2 ] Cellsim.Reporting.Area 6.0) in
  check bool_t "some calls skipped when lines are busy" true
    (on.Cellsim.Sim.skipped_calls > 0);
  check bool_t "no skips without durations" true
    (off.Cellsim.Sim.skipped_calls = 0);
  let per_call r =
    let s = List.hd r.Cellsim.Sim.per_scheme in
    s.Cellsim.Sim.expected_paging /. float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls)
  in
  check bool_t "ongoing-call tracking lowers expected paging" true
    (per_call on < per_call off)

let test_sim_determinism_with_new_features () =
  let config =
    base_config
      [ Cellsim.Sim.Blanket; Cellsim.Sim.Selective_diffuse 2 ]
      (Cellsim.Reporting.Distance 3) 4.0
  in
  let a = Cellsim.Sim.run config and b = Cellsim.Sim.run config in
  check int_t "same calls" a.Cellsim.Sim.total_calls b.Cellsim.Sim.total_calls;
  check int_t "same skips" a.Cellsim.Sim.skipped_calls b.Cellsim.Sim.skipped_calls;
  List.iter2
    (fun x y ->
      check int_t "same cells" x.Cellsim.Sim.cells_paged y.Cellsim.Sim.cells_paged)
    a.Cellsim.Sim.per_scheme b.Cellsim.Sim.per_scheme

(* -------------------- Scenarios -------------------- *)

let test_scenarios_run_and_are_deterministic () =
  List.iter
    (fun (name, build) ->
      let a = Cellsim.Sim.run (build ?seed:(Some 7) ()) in
      let b = Cellsim.Sim.run (build ?seed:(Some 7) ()) in
      check bool_t (name ^ " produces calls") true (a.Cellsim.Sim.total_calls > 10);
      check int_t (name ^ " deterministic") a.Cellsim.Sim.total_calls
        b.Cellsim.Sim.total_calls;
      List.iter2
        (fun x y ->
          check int_t (name ^ " cells stable") x.Cellsim.Sim.cells_paged
            y.Cellsim.Sim.cells_paged)
        a.Cellsim.Sim.per_scheme b.Cellsim.Sim.per_scheme)
    Cellsim.Scenario.all

let test_mobility_schedule_changes_behaviour () =
  (* The same seed with and without a drift schedule must diverge. *)
  let base = Cellsim.Scenario.suburb ?seed:(Some 11) () in
  let hex = base.Cellsim.Sim.hex in
  let drift = Cellsim.Mobility.drift_walk hex ~stay:0.1 ~east_bias:6.0 in
  let scheduled =
    { base with Cellsim.Sim.mobility_schedule = [ 0.0, drift ] }
  in
  let a = Cellsim.Sim.run base and b = Cellsim.Sim.run scheduled in
  check bool_t "schedules diverge" true
    (a.Cellsim.Sim.updates <> b.Cellsim.Sim.updates
    || a.Cellsim.Sim.moves <> b.Cellsim.Sim.moves)

let test_commuter_day_has_three_phases () =
  let config = Cellsim.Scenario.commuter_day () in
  check int_t "three regimes" 3
    (List.length config.Cellsim.Sim.mobility_schedule)

let () =
  Alcotest.run "reporting"
    [
      ( "policies",
        [
          Alcotest.test_case "area crossing" `Quick
            test_area_policy_reports_on_crossing;
          Alcotest.test_case "movement counting" `Quick
            test_movement_policy_counts_moves;
          Alcotest.test_case "distance threshold" `Quick
            test_distance_policy_reports_at_distance;
          Alcotest.test_case "time periodic" `Quick
            test_time_policy_reports_periodically;
          Alcotest.test_case "uncertainty invariant (fuzzed)" `Slow
            test_uncertainty_contains_truth_random_walks;
          Alcotest.test_case "page shrinks uncertainty" `Quick
            test_observe_page_shrinks_uncertainty;
          Alcotest.test_case "validation" `Quick test_policy_validation;
          QCheck_alcotest.to_alcotest prop_policy_round_trip;
          Alcotest.test_case "parser spellings" `Quick test_policy_spellings;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "runs under each policy" `Slow
            test_sim_runs_under_each_policy;
          Alcotest.test_case "reporting/paging tradeoff" `Slow
            test_tighter_reporting_means_more_updates_less_paging;
          Alcotest.test_case "diffusion estimator" `Slow
            test_diffuse_scheme_beats_counts_under_time_policy;
          Alcotest.test_case "busy users" `Slow test_busy_users_reduce_paging;
          Alcotest.test_case "determinism" `Slow
            test_sim_determinism_with_new_features;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "run + deterministic" `Slow
            test_scenarios_run_and_are_deterministic;
          Alcotest.test_case "schedule changes behaviour" `Slow
            test_mobility_schedule_changes_behaviour;
          Alcotest.test_case "commuter phases" `Quick
            test_commuter_day_has_three_phases;
        ] );
    ]
