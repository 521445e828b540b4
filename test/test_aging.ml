(* Tests for the residence-time aging layer: dwell laws, the semi-Markov
   aging kernel, age-evolved profile estimates, the staleness radius,
   and the simulator's age-aware schemes — plus regression tests for the
   neighbor-less walk rows, Mobility.diffuse argument validation and the
   lazy profile decay. *)

module M = Cellsim.Mobility
module P = Cellsim.Profile
module Sim = Cellsim.Sim

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps
let hex8 () = Cellsim.Hex.create ~rows:8 ~cols:8

let tv a b =
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. abs_float (x -. b.(i))) a;
  0.5 *. !s

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let random_dist rng n =
  Prob.Dist.normalize (Array.init n (fun _ -> Prob.Rng.float rng 1.0 +. 0.01))

let sample_laws =
  [
    M.Exponential { mean = 6.0 };
    M.Pareto { alpha = 1.6; scale = 3.5 };
    M.Zipf { s = 1.2; cutoff = 20 };
  ]

(* -------------------- residence laws -------------------- *)

let test_residence_survival_hazard () =
  List.iter
    (fun law ->
      check (float_t 0.0) "S(0) = 1" 1.0 (M.residence_survival law 0);
      for a = 0 to 40 do
        let h = M.residence_hazard law a in
        check bool_t "hazard in [0,1]" true (h >= 0.0 && h <= 1.0);
        check bool_t "survival non-increasing" true
          (M.residence_survival law (a + 1)
          <= M.residence_survival law a +. 1e-12)
      done)
    sample_laws;
  (* The memoryless law: constant hazard 1/mean. *)
  let e = M.Exponential { mean = 6.0 } in
  for a = 0 to 20 do
    check (float_t 1e-12) "exp hazard constant" (1.0 /. 6.0)
      (M.residence_hazard e a)
  done;
  (* The heavy tail: hazard decreases with dwell age. *)
  let p = M.Pareto { alpha = 1.6; scale = 3.5 } in
  for a = 0 to 20 do
    check bool_t "pareto hazard decreasing" true
      (M.residence_hazard p (a + 1) <= M.residence_hazard p a +. 1e-12)
  done;
  (* Bounded support: certain departure at the cutoff. *)
  let z = M.Zipf { s = 1.0; cutoff = 5 } in
  check (float_t 1e-12) "zipf exhausts at cutoff" 1.0 (M.residence_hazard z 5)

let bits_t = Alcotest.int64

(* E31's Pareto law is a constant; its scale is the one a bisection on
   the truncated mean returned for (alpha 1.6, mean 6). *)
let test_pareto_scale_bits () =
  (match Cellsim.Scenario.pareto_dwell with
   | M.Pareto { alpha; scale } ->
     check (float_t 0.0) "pareto_dwell alpha" 1.6 alpha;
     check bits_t "pareto_dwell scale bits"
       (Int64.bits_of_float 0x1.a35f1f8160d7p+1) (Int64.bits_of_float scale)
   | _ -> Alcotest.fail "pareto_dwell is not a Pareto law");
  (* The truncated sums themselves, from the same exact loop. *)
  List.iter
    (fun (alpha, scale, pinned) ->
      check bits_t
        (Printf.sprintf "residence_mean bits at alpha %g, scale %g" alpha scale)
        (Int64.bits_of_float pinned)
        (Int64.bits_of_float (M.residence_mean (M.Pareto { alpha; scale }))))
    [
      (1.6, 3.5, 0x1.97b11ce6a18e8p+2);
      (3.0, 10.0, 0x1.61983f4c89d7cp+2);
      (4.0, 0.5, 0x1.03c1f080ff85p+0);
    ]

(* The constant is the first float scale at which the truncated mean
   reaches 6: exactly 6 there, below 6 one ulp lower. *)
let test_pareto_mean_matching () =
  match Cellsim.Scenario.pareto_dwell with
  | M.Pareto { alpha; scale } ->
    let mean scale = M.residence_mean (M.Pareto { alpha; scale }) in
    check bits_t "truncated mean at the constant"
      (Int64.bits_of_float 0x1.8p+2)
      (Int64.bits_of_float (mean scale));
    let below = mean (Float.pred scale) in
    if not (below < 6.0) then
      Alcotest.failf "truncated mean one ulp lower is %h, not below 6" below
  | _ -> Alcotest.fail "pareto_dwell is not a Pareto law"

let test_residence_strings () =
  List.iter
    (fun law ->
      match M.residence_of_string (M.residence_to_string law) with
      | Ok law' ->
        check Alcotest.string "roundtrip" (M.residence_to_string law)
          (M.residence_to_string law')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    sample_laws;
  List.iter
    (fun s ->
      check bool_t ("rejects " ^ s) true
        (Result.is_error (M.residence_of_string s)))
    [ ""; "exp"; "exp:0"; "pareto:1.6"; "zipf:1.2:0"; "weibull:2" ]

let test_validate_residence () =
  List.iter
    (fun law -> check bool_t "valid" true (M.validate_residence law = Ok ()))
    sample_laws;
  List.iter
    (fun law ->
      check bool_t "invalid" true (Result.is_error (M.validate_residence law)))
    [
      M.Exponential { mean = 0.5 };
      M.Exponential { mean = nan };
      M.Pareto { alpha = 0.0; scale = 3.0 };
      M.Pareto { alpha = 1.6; scale = 0.0 };
      M.Zipf { s = -0.1; cutoff = 5 };
      M.Zipf { s = 1.0; cutoff = 0 };
    ]

(* -------------------- walk-row regressions -------------------- *)

(* A 1×1 field has a neighbor-less cell: both walk builders used to
   divide by the neighbor count. The cell must now be absorbing. *)
let test_single_cell_walks_absorbing () =
  let h = Cellsim.Hex.create ~rows:1 ~cols:1 in
  let rw = M.random_walk h ~stay:0.3 in
  check (float_t 0.0) "random walk absorbs" 1.0 (M.row rw 0).(0);
  let dw = M.drift_walk h ~stay:0.3 ~east_bias:2.0 in
  check (float_t 0.0) "drift walk absorbs" 1.0 (M.row dw 0).(0)

let test_create_names_offending_row () =
  match M.create [| [| 0.5; 0.5 |]; [| 0.7; 0.5 |] |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check bool_t "names the row" true (contains msg "row 1");
    check bool_t "names the sum" true (contains msg "1.2")

(* NaN fails every ordered comparison, so a [x < 0.0] sign check and a
   [> 1e-9] sum check both let it through. *)
let test_create_rejects_nan () =
  let rejects rows =
    match M.create rows with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg -> msg
  in
  let msg = rejects [| [| nan; 1.0 |]; [| 0.5; 0.5 |] |] in
  check bool_t "NaN named with row and column" true
    (contains msg "NaN entry in row 0, column 0");
  let msg = rejects [| [| 0.5; 0.5 |]; [| 1.0; Float.nan |] |] in
  check bool_t "second row, last column" true
    (contains msg "row 1, column 1");
  let msg = rejects [| [| 0.5; 0.5 |]; [| 1.5; -0.5 |] |] in
  check bool_t "negative text unchanged" true
    (contains msg "negative entry in row 1")

let test_diffuse_rejects_negative_steps () =
  let h = hex8 () in
  let mob = M.random_walk h ~stay:0.4 in
  let n = Cellsim.Hex.cells h in
  let d = Array.make n (1.0 /. float_of_int n) in
  check bool_t "steps < 0 raises" true
    (raises_invalid (fun () -> M.diffuse mob d ~steps:(-1)));
  check bool_t "steps = 0 fine" true
    (tv (M.diffuse mob d ~steps:0) d = 0.0)

(* -------------------- aging kernel -------------------- *)

let test_aging_validation () =
  let base = M.random_walk (hex8 ()) ~stay:0.5 in
  check bool_t "bad law rejected" true
    (raises_invalid (fun () ->
         M.aging_uniform base (M.Exponential { mean = 0.0 })));
  check bool_t "dwell_cap < 1 rejected" true
    (raises_invalid (fun () ->
         M.aging_uniform ~dwell_cap:0 base (M.Exponential { mean = 2.0 })));
  check bool_t "law-count mismatch rejected" true
    (raises_invalid (fun () ->
         M.aging base [| M.Exponential { mean = 2.0 } |]))

let test_semi_step_bounds () =
  let h = hex8 () in
  let base = M.random_walk h ~stay:0.5 in
  let cap = 8 in
  let aging =
    M.aging_uniform ~dwell_cap:cap base (M.Pareto { alpha = 1.6; scale = 3.5 })
  in
  let rng = Prob.Rng.create ~seed:42 in
  let n = Cellsim.Hex.cells h in
  let cell = ref 0 and dwell = ref 0 in
  for _ = 1 to 2000 do
    let c', dw' = M.semi_step aging rng ~cell:!cell ~dwell:!dwell in
    check bool_t "cell in range" true (c' >= 0 && c' < n);
    if c' <> !cell then check int_t "dwell resets on move" 0 dw'
    else
      check int_t "dwell grows, clamped below cap" (Int.min (!dwell + 1) (cap - 1))
        dw';
    cell := c';
    dwell := dw'
  done

let test_semi_step_absorbing_cell_stays () =
  let h = Cellsim.Hex.create ~rows:1 ~cols:1 in
  let aging =
    M.aging_uniform (M.random_walk h ~stay:0.3) (M.Exponential { mean = 2.0 })
  in
  let rng = Prob.Rng.create ~seed:5 in
  for dwell = 0 to 5 do
    let c', _ = M.semi_step aging rng ~cell:0 ~dwell in
    check int_t "absorbing cell never leaves" 0 c'
  done

(* With a uniform exponential law of mean 1/(1 − stay), the semi-Markov
   per-tick dynamics coincide with the base chain: age_dist must equal
   diffuse, step for step. *)
let test_exp_matched_aging_is_markov () =
  let h = hex8 () in
  let stay = 0.5 in
  let base = M.random_walk h ~stay in
  let aging =
    M.aging_uniform base (M.Exponential { mean = 1.0 /. (1.0 -. stay) })
  in
  let n = Cellsim.Hex.cells h in
  let rng = Prob.Rng.create ~seed:7 in
  for _ = 1 to 5 do
    let d = random_dist rng n in
    List.iter
      (fun steps ->
        check (float_t 1e-9) "age_dist = diffuse" 0.0
          (tv (M.age_dist aging d ~steps) (M.diffuse base d ~steps)))
      [ 0; 1; 3; 8 ]
  done

let test_age_dist_is_distribution () =
  let h = hex8 () in
  let base = M.random_walk h ~stay:0.5 in
  let n = Cellsim.Hex.cells h in
  let rng = Prob.Rng.create ~seed:13 in
  List.iter
    (fun law ->
      let aging = M.aging_uniform base law in
      let d = random_dist rng n in
      for steps = 0 to 20 do
        let a = M.age_dist aging d ~steps in
        let sum = Array.fold_left ( +. ) 0.0 a in
        check (float_t 1e-9) "sums to 1" 1.0 sum;
        Array.iter (fun x -> check bool_t "non-negative" true (x >= -1e-15)) a
      done;
      check bool_t "steps < 0 raises" true
        (raises_invalid (fun () -> M.age_dist aging d ~steps:(-1))))
    sample_laws

let test_age_to_infinity_reaches_stationary () =
  (* Matched exponential law on a small field: the aged point mass must
     converge to the base chain's stationary distribution. *)
  let h = Cellsim.Hex.create ~rows:4 ~cols:4 in
  let stay = 0.5 in
  let base = M.random_walk h ~stay in
  let aging =
    M.aging_uniform base (M.Exponential { mean = 1.0 /. (1.0 -. stay) })
  in
  let n = Cellsim.Hex.cells h in
  let delta = Array.make n 0.0 in
  delta.(0) <- 1.0;
  let aged = M.age_dist aging delta ~steps:400 in
  check (float_t 1e-6) "converged to stationary" 0.0
    (tv aged (M.stationary base));
  (* Heavy-tailed laws: no closed form claimed, but the evolution must
     still reach a fixed point. *)
  let pareto = M.aging_uniform base (M.Pareto { alpha = 1.6; scale = 3.5 }) in
  check (float_t 1e-6) "pareto fixed point" 0.0
    (tv (M.age_dist pareto delta ~steps:400) (M.age_dist pareto delta ~steps:401))

(* -------------------- profile aging -------------------- *)

let observed_profile h ~count ~seed =
  let n = Cellsim.Hex.cells h in
  let p = P.create ~cells:n ~decay:0.9 ~smoothing:0.05 in
  let rng = Prob.Rng.create ~seed in
  for _ = 1 to count do
    P.observe p (Prob.Rng.int rng n)
  done;
  p

let test_profile_age0_bit_identical () =
  let h = hex8 () in
  let p = observed_profile h ~count:200 ~seed:3 in
  let aging =
    M.aging_uniform (M.random_walk h ~stay:0.5) (M.Exponential { mean = 2.0 })
  in
  check bool_t "aged age-0 bitwise" true
    (P.aged p ~aging ~age:0 = P.distribution p);
  let subset = [| 0; 5; 9; 33 |] in
  check bool_t "aged_over age-0 bitwise" true
    (P.aged_over p ~aging ~age:0 subset = P.distribution_over p subset);
  check bool_t "age > 0 changes the row" true
    (tv (P.aged p ~aging ~age:3) (P.distribution p) > 1e-6);
  check bool_t "negative age rejected" true
    (raises_invalid (fun () -> P.aged p ~aging ~age:(-1)));
  check bool_t "empty subset rejected" true
    (raises_invalid (fun () -> P.aged_over p ~aging ~age:1 [||]))

let test_aged_over_normalizes () =
  let h = hex8 () in
  let p = observed_profile h ~count:100 ~seed:17 in
  let aging =
    M.aging_uniform (M.random_walk h ~stay:0.5)
      (M.Pareto { alpha = 1.6; scale = 3.5 })
  in
  let subset = [| 2; 3; 10; 11; 40 |] in
  List.iter
    (fun age ->
      let r = P.aged_over p ~aging ~age subset in
      check int_t "subset length" (Array.length subset) (Array.length r);
      check (float_t 1e-9) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 r))
    [ 0; 1; 5; 12 ]

(* The lazy decay (pending-exponent stamps) against a test-local eager
   reference: bitwise when every observation is followed by a read (lag
   1 is a single multiply), and within 1e-12 after long unread batches
   (the power collapse differs from repeated multiplication only by
   float associativity). *)
let test_lazy_decay_matches_eager () =
  let n = 32 in
  let decay = 0.9 and smoothing = 0.05 in
  let p = P.create ~cells:n ~decay ~smoothing in
  let eager = Array.make n 0.0 in
  let observe c =
    for j = 0 to n - 1 do
      eager.(j) <- eager.(j) *. decay
    done;
    eager.(c) <- eager.(c) +. 1.0;
    P.observe p c
  in
  let eager_dist () =
    Prob.Dist.normalize (Array.map (fun x -> x +. smoothing) eager)
  in
  let rng = Prob.Rng.create ~seed:11 in
  for _ = 1 to 100 do
    observe (Prob.Rng.int rng n);
    check bool_t "bitwise at lag 1" true (P.distribution p = eager_dist ())
  done;
  for _ = 1 to 500 do
    observe (Prob.Rng.int rng n)
  done;
  let lazy_d = P.distribution p and eager_d = eager_dist () in
  Array.iteri
    (fun j x -> check (float_t 1e-12) "batched within 1e-12" eager_d.(j) x)
    lazy_d;
  check int_t "same observation count" 600 (P.observations p)

(* -------------------- staleness radius -------------------- *)

let test_staleness_eps_monotone () =
  let dkw = Prob.Estimate.dkw_eps ~n:100 ~confidence:0.9 in
  check (float_t 0.0) "churn 0 is plain DKW" dkw
    (Prob.Estimate.staleness_eps ~n:100 ~confidence:0.9 ~churn:0.0);
  let prev = ref 0.0 in
  List.iter
    (fun churn ->
      let e = Prob.Estimate.staleness_eps ~n:100 ~confidence:0.9 ~churn in
      check bool_t "monotone in churn" true (e >= !prev);
      check bool_t "bounded by 1" true (e <= 1.0);
      prev := e)
    [ 0.0; 0.1; 0.3; 0.7; 0.95; 1.0 ];
  check (float_t 0.0) "capped at 1" 1.0
    (Prob.Estimate.staleness_eps ~n:100 ~confidence:0.9 ~churn:1.0);
  check bool_t "churn > 1 rejected" true
    (raises_invalid (fun () ->
         Prob.Estimate.staleness_eps ~n:100 ~confidence:0.9 ~churn:1.1));
  check bool_t "churn < 0 rejected" true
    (raises_invalid (fun () ->
         Prob.Estimate.staleness_eps ~n:100 ~confidence:0.9 ~churn:(-0.1)))

let test_inflate_monotone () =
  let open Confcall in
  let ball = Uncertainty.per_row [| 0.05; 0.1 |] in
  let inflated = Uncertainty.inflate ball ~by:[| 0.2; 0.95 |] in
  check (float_t 1e-12) "radius grows by the increment" 0.25
    (Uncertainty.eps_for inflated 0);
  check (float_t 1e-12) "capped at the trivial radius" 1.0
    (Uncertainty.eps_for inflated 1);
  let inst =
    Instance.create ~d:2 [| [| 0.7; 0.2; 0.1 |]; [| 0.1; 0.8; 0.1 |] |]
  in
  let strat = (Solver.solve Solver.Greedy inst).Solver.strategy in
  check bool_t "worst-case EP never shrinks" true
    (Uncertainty.robust_ep inflated inst strat
    >= Uncertainty.robust_ep ball inst strat -. 1e-12);
  check bool_t "negative increment rejected" true
    (raises_invalid (fun () -> Uncertainty.inflate ball ~by:[| -0.1; 0.0 |]));
  check bool_t "length mismatch rejected" true
    (raises_invalid (fun () -> Uncertainty.inflate ball ~by:[| 0.1 |]))

(* -------------------- simulator -------------------- *)

let shorten cfg = { cfg with Sim.duration = 150.0 }

(* With age_cap = 0 the aged scheme must reproduce the age-blind one
   decision for decision within the same run — the frozen-snapshot
   differential of the aged path. *)
let test_sim_age0_differential () =
  let base = Cellsim.Scenario.suburb ~seed:5 () in
  let cfg =
    shorten
      {
        base with
        Sim.schemes = [ Sim.Selective 3; Sim.Selective_aged 3 ];
        reporting = Cellsim.Reporting.Time 6;
        aging = Some { Sim.default_aging with Sim.age_cap = 0 };
      }
  in
  let r = Sim.run cfg in
  let get s = List.find (fun m -> m.Sim.scheme = s) r.Sim.per_scheme in
  let a = get (Sim.Selective 3) and b = get (Sim.Selective_aged 3) in
  check int_t "cells paged equal" a.Sim.cells_paged b.Sim.cells_paged;
  check int_t "rounds equal" a.Sim.rounds_used b.Sim.rounds_used;
  check (float_t 0.0) "nominal EP equal" a.Sim.expected_paging
    b.Sim.expected_paging

let test_residence_scenarios_deterministic () =
  List.iter
    (fun cfg ->
      let run () = Sim.run (shorten cfg) in
      let r1 = run () and r2 = run () in
      check int_t "moves equal" r1.Sim.moves r2.Sim.moves;
      check int_t "polls equal" r1.Sim.polls r2.Sim.polls;
      List.iter2
        (fun a b ->
          check int_t "cells equal" a.Sim.cells_paged b.Sim.cells_paged;
          check (float_t 0.0) "EP equal" a.Sim.expected_paging
            b.Sim.expected_paging)
        r1.Sim.per_scheme r2.Sim.per_scheme)
    [
      Cellsim.Scenario.residence_exp ~seed:9 ();
      Cellsim.Scenario.residence_pareto ~seed:9 ();
    ]

let test_sim_reprofile_polls () =
  let cfg = shorten (Cellsim.Scenario.residence_exp ~seed:5 ()) in
  let with_reprofile =
    {
      cfg with
      Sim.aging =
        Option.map
          (fun a -> { a with Sim.reprofile_age = Some 0 })
          cfg.Sim.aging;
    }
  in
  let r0 = Sim.run cfg and r1 = Sim.run with_reprofile in
  check int_t "no polls without the trigger" 0 r0.Sim.polls;
  check bool_t "polls happen" true (r1.Sim.polls > 0);
  let sel r = List.find (fun m -> m.Sim.scheme = Sim.Selective 3) r.Sim.per_scheme in
  check bool_t "re-profiling pages no more cells" true
    ((sel r1).Sim.cells_paged <= (sel r0).Sim.cells_paged)

let test_sim_aging_validation () =
  let cfg = Cellsim.Scenario.suburb ~seed:1 () in
  check bool_t "aged scheme needs aging" true
    (raises_invalid (fun () ->
         Sim.run { cfg with Sim.schemes = [ Sim.Selective_aged 3 ] }));
  check bool_t "robust scheme needs aging" true
    (raises_invalid (fun () ->
         Sim.run { cfg with Sim.schemes = [ Sim.Selective_robust 3 ] }));
  check bool_t "bad residence rejected" true
    (raises_invalid (fun () ->
         Sim.run
           {
             cfg with
             Sim.aging =
               Some
                 {
                   Sim.default_aging with
                   Sim.residence = M.Exponential { mean = 0.5 };
                 };
           }));
  let commuter = Cellsim.Scenario.commuter_day ~seed:1 () in
  check bool_t "drive_motion excludes mobility_schedule" true
    (raises_invalid (fun () ->
         Sim.run
           {
             commuter with
             Sim.aging =
               Some { Sim.default_aging with Sim.drive_motion = true };
           }))

(* -------------------- dense reference -------------------- *)

(* Mobility keeps sparse rows and a flat aging kernel; Mobility_ref is
   the dense n×n implementation they replaced. Built from the same
   inputs, the two must agree bit for bit on every row, every sampled
   cell, every power iteration and every aged belief. *)

module R = Mobility_ref

let same_bits what a b =
  check int_t (what ^ ": length") (Array.length b) (Array.length a);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: entry %d is %h, dense reference %h" what i x b.(i))
    a

(* (name, sparse, dense) pairs: hex and drift walks (one with no stay
   mass, so every diagonal is an absent zero), a dense teleport, a 1×1
   field, and hand-made rows whose last entry is 0. *)
let reference_models () =
  let h88 = hex8 () and h35 = Cellsim.Hex.create ~rows:3 ~cols:5 in
  let h11 = Cellsim.Hex.create ~rows:1 ~cols:1 in
  let target = random_dist (Prob.Rng.create ~seed:41) 15 in
  let hand =
    [|
      [| 0.1; 0.2; 0.7; 0.0 |];
      [| 0.0; 0.0; 1.0; 0.0 |];
      [| 0.25; 0.0; 0.75 -. 1e-10; 0.0 |];
      [| 0.0; 0.5; 0.0; 0.5 |];
    |]
  in
  [
    ( "hex walk 8x8",
      M.random_walk h88 ~stay:(1.0 -. (1.0 /. 6.0)),
      R.random_walk h88 ~stay:(1.0 -. (1.0 /. 6.0)) );
    ("hex walk, stay 0", M.random_walk h35 ~stay:0.0, R.random_walk h35 ~stay:0.0);
    ( "drift walk",
      M.drift_walk h35 ~stay:0.2 ~east_bias:4.0,
      R.drift_walk h35 ~stay:0.2 ~east_bias:4.0 );
    ( "teleport",
      M.teleport (M.random_walk h35 ~stay:0.5) ~jump:0.3 ~target,
      R.teleport (R.random_walk h35 ~stay:0.5) ~jump:0.3 ~target );
    ("1x1 field", M.random_walk h11 ~stay:0.3, R.random_walk h11 ~stay:0.3);
    ("hand rows, last entry 0", M.create hand, R.create hand);
  ]

let test_reference_rows_and_steps () =
  List.iter
    (fun (name, m, d) ->
      let n = M.cells m in
      check int_t (name ^ ": cells") d.R.n n;
      for i = 0 to n - 1 do
        same_bits (Printf.sprintf "%s: row %d" name i) (M.row m i) d.R.rows.(i)
      done;
      let r1 = Prob.Rng.create ~seed:5 and r2 = Prob.Rng.create ~seed:5 in
      for i = 0 to 1999 do
        let cell = i mod n in
        check int_t (name ^ ": step") (R.step d r2 ~cell) (M.step m r1 ~cell)
      done)
    (reference_models ())

(* A generator whose first [unit_float] is 1 - 2^-53, found by running
   xoshiro256** and its SplitMix64 seeding backwards: so [step] must
   pass every partial sum of a row and take the fall-through. *)
let rng_at_top () =
  let open Int64 in
  let inverse c =
    let x = ref c in
    for _ = 1 to 6 do
      x := mul !x (sub 2L (mul c !x))
    done;
    !x
  in
  let unxorshift y k =
    let x = ref y in
    for _ = 1 to 3 do
      x := logxor y (shift_right_logical !x k)
    done;
    !x
  in
  let rotr x k = logor (shift_right_logical x k) (shift_left x (64 - k)) in
  let golden = 0x9E3779B97F4A7C15L in
  let rec search low =
    (* bits64 = rotl (s1 * 5, 7) * 9; s1 is SplitMix64's second output. *)
    let s1 = mul (rotr (mul (logor 0xFFFFFFFFFFFFF800L low) (inverse 9L)) 7) (inverse 5L) in
    let z = unxorshift s1 31 in
    let z = unxorshift (mul z (inverse 0x94D049BB133111EBL)) 27 in
    let z = unxorshift (mul z (inverse 0xBF58476D1CE4E5B9L)) 30 in
    let seed = sub z (mul 2L golden) in
    if of_int (to_int seed) = seed then Prob.Rng.create ~seed:(to_int seed)
    else search (add low 1L)
  in
  search 0L

let test_reference_step_falls_through () =
  check (float_t 0.0) "first draw" (1.0 -. 0x1p-53)
    (Prob.Rng.unit_float (rng_at_top ()));
  List.iter
    (fun (name, m, d) ->
      for cell = 0 to M.cells m - 1 do
        check int_t
          (Printf.sprintf "%s: top draw from cell %d" name cell)
          (R.step d (rng_at_top ()) ~cell)
          (M.step m (rng_at_top ()) ~cell)
      done)
    (reference_models ());
  (* Row 2 of the hand rows sums to 1 - 1e-10 before its zero last
     entry, so the top draw falls through to cell 3. *)
  let _, hand, _ = List.nth (reference_models ()) 5 in
  check int_t "fall-through to cell n - 1" 3 (M.step hand (rng_at_top ()) ~cell:2)

let test_reference_stationary_and_diffuse () =
  List.iter
    (fun (name, m, d) ->
      let n = M.cells m in
      same_bits (name ^ ": stationary") (M.stationary m) (R.stationary d);
      let starts =
        [ random_dist (Prob.Rng.create ~seed:9) n;
          Prob.Dist.point_mass ~eps:1e-9 n (n - 1) ]
      in
      List.iter
        (fun dist ->
          List.iter
            (fun steps ->
              same_bits
                (Printf.sprintf "%s: diffuse %d" name steps)
                (M.diffuse m dist ~steps) (R.diffuse d dist ~steps))
            [ 0; 1; 2; 5; 17 ])
        starts)
    (reference_models ())

(* Uniform kernels at several dwell caps (the sparse one computes its
   hazard row once), plus one kernel with a different law per cell. *)
let reference_kernels (m, d) =
  let n = M.cells m in
  let mixed = Array.init n (fun c -> List.nth sample_laws (c mod 3)) in
  List.concat_map
    (fun dwell_cap ->
      List.map
        (fun law ->
          ( Printf.sprintf "%s, cap %d" (M.residence_to_string law) dwell_cap,
            M.aging_uniform ~dwell_cap m law,
            R.aging_uniform ~dwell_cap d law ))
        [ M.Exponential { mean = 6.0 }; Cellsim.Scenario.pareto_dwell ])
    [ 1; 3; 32 ]
  @ [ ("mixed laws, cap 8", M.aging ~dwell_cap:8 m mixed, R.aging ~dwell_cap:8 d mixed) ]

let test_reference_aging () =
  List.iter
    (fun (name, m, d) ->
      let dist = random_dist (Prob.Rng.create ~seed:23) (M.cells m) in
      List.iter
        (fun (kname, ka, kd) ->
          let what = name ^ ", " ^ kname in
          for steps = 0 to 40 do
            same_bits
              (Printf.sprintf "%s: age_dist %d" what steps)
              (M.age_dist ka dist ~steps) (R.age_dist kd dist ~steps)
          done;
          let r1 = Prob.Rng.create ~seed:31 and r2 = Prob.Rng.create ~seed:31 in
          let rec walk i ((cell, dwell) as here) =
            if i < 2000 then begin
              let next = M.semi_step ka r1 ~cell ~dwell in
              check (Alcotest.pair int_t int_t) (what ^ ": semi_step")
                (R.semi_step kd r2 ~cell ~dwell) next;
              walk (i + 1) next
            end
            else ignore here
          in
          walk 0 (0, 0))
        (reference_kernels (m, d)))
    (reference_models ())

let () =
  Alcotest.run "aging"
    [
      ( "residence",
        [
          Alcotest.test_case "survival/hazard shapes" `Quick
            test_residence_survival_hazard;
          Alcotest.test_case "pareto mean matching" `Quick
            test_pareto_mean_matching;
          Alcotest.test_case "pareto scale bits" `Quick test_pareto_scale_bits;
          Alcotest.test_case "string round-trip" `Quick test_residence_strings;
          Alcotest.test_case "validation" `Quick test_validate_residence;
        ] );
      ( "walk regressions",
        [
          Alcotest.test_case "neighbor-less cells absorb" `Quick
            test_single_cell_walks_absorbing;
          Alcotest.test_case "create names offender" `Quick
            test_create_names_offending_row;
          Alcotest.test_case "create rejects NaN" `Quick
            test_create_rejects_nan;
          Alcotest.test_case "diffuse rejects steps < 0" `Quick
            test_diffuse_rejects_negative_steps;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "validation" `Quick test_aging_validation;
          Alcotest.test_case "semi_step bounds" `Quick test_semi_step_bounds;
          Alcotest.test_case "absorbing cell stays" `Quick
            test_semi_step_absorbing_cell_stays;
          Alcotest.test_case "matched exp = Markov" `Quick
            test_exp_matched_aging_is_markov;
          Alcotest.test_case "aged rows are distributions" `Quick
            test_age_dist_is_distribution;
          Alcotest.test_case "age → ∞ reaches stationary" `Slow
            test_age_to_infinity_reaches_stationary;
        ] );
      ( "dense reference",
        [
          Alcotest.test_case "rows and steps" `Quick
            test_reference_rows_and_steps;
          Alcotest.test_case "step falls through at the top" `Quick
            test_reference_step_falls_through;
          Alcotest.test_case "stationary and diffuse" `Quick
            test_reference_stationary_and_diffuse;
          Alcotest.test_case "age_dist and semi_step" `Quick
            test_reference_aging;
        ] );
      ( "profile",
        [
          Alcotest.test_case "age 0 bit-identical" `Quick
            test_profile_age0_bit_identical;
          Alcotest.test_case "aged_over normalizes" `Quick
            test_aged_over_normalizes;
          Alcotest.test_case "lazy decay = eager" `Quick
            test_lazy_decay_matches_eager;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "staleness_eps monotone" `Quick
            test_staleness_eps_monotone;
          Alcotest.test_case "inflate monotone + capped" `Quick
            test_inflate_monotone;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "age-0 differential" `Slow
            test_sim_age0_differential;
          Alcotest.test_case "residence scenarios deterministic" `Slow
            test_residence_scenarios_deterministic;
          Alcotest.test_case "re-profiling polls" `Slow
            test_sim_reprofile_polls;
          Alcotest.test_case "validation" `Quick test_sim_aging_validation;
        ] );
    ]
