(* Tests for the uncertainty layer: certified EP bounds (Uncertainty)
   and the directed-rounding intervals (Numeric.Interval) they rest on.

   The heavy lifting is a test-local exact-rational oracle. On dyadic
   instances (all entries multiples of 1/64, dyadic ε and tv) every
   float the library touches is exactly representable, so the float
   results must agree with the rational oracle to within interval
   round-off — this validates the canonical-adversary construction
   against the independent δ⁻/δ⁺ characterization from the .mli. *)

open Confcall
module Q = Numeric.Rational
module I = Numeric.Interval

let qt = QCheck_alcotest.to_alcotest
let check = Alcotest.check
let float_t eps = Alcotest.float eps

(* -------------------- generators -------------------- *)

(* Random strategy over [c] cells with at most [d] rounds: shuffled
   order, random split into non-empty groups. *)
let random_strategy rng ~c ~d =
  let order = Array.init c (fun j -> j) in
  Prob.Rng.shuffle rng order;
  let t = 1 + Prob.Rng.int rng (Int.min d c) in
  let sizes = Array.make t 1 in
  for _ = 1 to c - t do
    let r = Prob.Rng.int rng t in
    sizes.(r) <- sizes.(r) + 1
  done;
  Strategy.of_sizes ~order ~sizes

let random_objective rng ~m =
  match Prob.Rng.int rng 3 with
  | 0 -> Objective.Find_all
  | 1 -> Objective.Find_any
  | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)

(* Integer weight rows summing to [den]; dyadic in float for den = 64. *)
let dyadic_weights rng ~m ~c ~den =
  Array.init m (fun _ ->
      let w = Array.make c 0 in
      for _ = 1 to den do
        let j = Prob.Rng.int rng c in
        w.(j) <- w.(j) + 1
      done;
      w)

(* -------------------- rational oracle -------------------- *)

(* Extremal prefix masses per device and round, straight from the
   δ⁻/δ⁺ formulas (no shared code with Uncertainty.perturb_row):
     worst:  m(r) − min(Σ_{j∈pre} min(ε,p_j), Σ_{j∉pre} min(ε,1−p_j), tv)
     best:   m(r) + min(Σ_{j∉pre} min(ε,p_j), Σ_{j∈pre} min(ε,1−p_j), tv) *)
let oracle_masses ~worst ~eps ~tv row groups =
  let qmin = Q.min in
  let cap_tv d = match tv with None -> d | Some t -> qmin d t in
  let give = Array.map (fun p -> qmin eps p) row in
  let absorb = Array.map (fun p -> qmin eps Q.(one - p)) row in
  let total_give = Q.sum (Array.to_list give) in
  let total_abs = Q.sum (Array.to_list absorb) in
  let pre_mass = ref Q.zero
  and pre_give = ref Q.zero
  and pre_abs = ref Q.zero in
  Array.map
    (fun cells ->
       Array.iter
         (fun j ->
            pre_mass := Q.(!pre_mass + row.(j));
            pre_give := Q.(!pre_give + give.(j));
            pre_abs := Q.(!pre_abs + absorb.(j)))
         cells;
       if worst then
         let d = cap_tv (qmin !pre_give Q.(total_abs - !pre_abs)) in
         Q.(!pre_mass - d)
       else
         let d = cap_tv (qmin Q.(total_give - !pre_give) !pre_abs) in
         Q.(!pre_mass + d))
    groups

(* Objective success probability on exact per-device masses. *)
let oracle_success objective masses =
  match objective with
  | Objective.Find_all -> Q.product (Array.to_list masses)
  | Objective.Find_any ->
    Q.(one - Q.product (Array.to_list (Array.map (fun p -> one - p) masses)))
  | Objective.Find_at_least k ->
    let m = Array.length masses in
    if k <= 0 then Q.one
    else if k > m then Q.zero
    else begin
      (* Poisson-binomial tail via the standard DP *)
      let dp = Array.make (m + 1) Q.zero in
      dp.(0) <- Q.one;
      Array.iteri
        (fun i p ->
           let q = Q.(one - p) in
           for j = i + 1 downto 1 do
             let prev = dp.(j - 1) in
             dp.(j) <- Q.((dp.(j) * q) + (prev * p))
           done;
           dp.(0) <- Q.(dp.(0) * q))
        masses;
      Q.sum (Array.to_list (Array.sub dp k (m - k + 1)))
    end

(* Extremal EP in Q: c − Σ_{r=0}^{t−2} |S_{r+2}|·F_r. *)
let oracle_ep ~worst ~objective ~eps ~tv rows_q strat =
  let groups = Strategy.groups strat in
  let sizes = Strategy.sizes strat in
  let t = Array.length sizes in
  let c =
    Array.fold_left (fun acc g -> acc + Array.length g) 0 groups
  in
  let device_masses =
    Array.map (fun row -> oracle_masses ~worst ~eps ~tv row groups) rows_q
  in
  let acc = ref (Q.of_int c) in
  for r = 0 to t - 2 do
    let masses = Array.map (fun dm -> dm.(r)) device_masses in
    let f = oracle_success objective masses in
    let size = Q.of_int sizes.(r + 1) in
    acc := Q.(!acc - (size * f))
  done;
  !acc

(* -------------------- oracle vs library -------------------- *)

(* On dyadic instances robust_ep / optimistic_ep must match the oracle
   to float round-off, and ep_bounds must enclose both oracle extremes
   tightly (same formulas, one-ulp-per-op widening). *)
let prop_robust_matches_rational_oracle =
  QCheck.Test.make ~name:"robust/optimistic EP match exact rational oracle"
    ~count:120
    (QCheck.int_range 0 999999)
    (fun seed ->
       let rng = Prob.Rng.create ~seed in
       let den = 64 in
       let m = 1 + Prob.Rng.int rng 3 and c = 2 + Prob.Rng.int rng 6 in
       let d = 2 + Prob.Rng.int rng (c - 1) in
       let w = dyadic_weights rng ~m ~c ~den in
       let rows_q =
         Array.map (Array.map (fun n -> Q.of_ints n den)) w
       in
       let inst =
         Instance.create ~d
           (Array.map
              (Array.map (fun n -> float_of_int n /. float_of_int den))
              w)
       in
       let strat = random_strategy rng ~c ~d in
       let objective = random_objective rng ~m in
       (* dyadic ε, and a dyadic tv budget half the time *)
       let e_num = Prob.Rng.int rng 8 in
       let eps_q = Q.of_ints e_num den in
       let eps_f = float_of_int e_num /. float_of_int den in
       let tv_q, tv_f =
         if Prob.Rng.bool rng then (None, infinity)
         else
           let t_num = Prob.Rng.int rng 16 in
           (Some (Q.of_ints t_num den), float_of_int t_num /. float_of_int den)
       in
       let u = Uncertainty.uniform ~tv:tv_f eps_f in
       let tol = 1e-12 *. float_of_int c in
       let worst_q =
         oracle_ep ~worst:true ~objective ~eps:eps_q ~tv:tv_q rows_q strat
       in
       let best_q =
         oracle_ep ~worst:false ~objective ~eps:eps_q ~tv:tv_q rows_q strat
       in
       let worst_f = Uncertainty.robust_ep ~objective u inst strat in
       let best_f = Uncertainty.optimistic_ep ~objective u inst strat in
       let b = Uncertainty.ep_bounds ~objective u inst strat in
       if Float.abs (worst_f -. Q.to_float worst_q) > tol then
         QCheck.Test.fail_reportf
           "robust_ep %.17g <> oracle %s" worst_f (Q.to_string worst_q);
       if Float.abs (best_f -. Q.to_float best_q) > tol then
         QCheck.Test.fail_reportf
           "optimistic_ep %.17g <> oracle %s" best_f (Q.to_string best_q);
       (* the interval bounds use the same masses: tight to round-off,
          except where the [sizes.(0), c] clamp bites *)
       if b.Uncertainty.lo -. Q.to_float best_q > tol then
         QCheck.Test.fail_reportf "bounds.lo %.17g above best case %s"
           b.Uncertainty.lo (Q.to_string best_q);
       if Q.to_float worst_q -. b.Uncertainty.hi > tol then
         QCheck.Test.fail_reportf "bounds.hi %.17g below worst case %s"
           b.Uncertainty.hi (Q.to_string worst_q);
       (* for Find_all / Find_any the interval endpoints correspond
          exactly to the extremal masses, so the bounds are tight up to
          round-off; the interval Poisson-binomial DP of Find_at_least
          is sound but decouples p and 1−p of one device, so only
          enclosure holds there *)
       (match objective with
        | Objective.Find_at_least _ -> ()
        | Objective.Find_all | Objective.Find_any ->
          let tight = 1e-9 *. float_of_int c in
          if b.Uncertainty.hi -. Float.min (float_of_int c) (Q.to_float worst_q)
             > tight
          then
            QCheck.Test.fail_reportf "bounds.hi %.17g not tight vs worst %s"
              b.Uncertainty.hi (Q.to_string worst_q);
          if Float.max (float_of_int (Strategy.sizes strat).(0)) (Q.to_float best_q)
             -. b.Uncertainty.lo > tight
          then
            QCheck.Test.fail_reportf "bounds.lo %.17g not tight vs best %s"
              b.Uncertainty.lo (Q.to_string best_q));
       true)

(* -------------------- float-level properties -------------------- *)

let random_setup rng =
  let m = 1 + Prob.Rng.int rng 4 and c = 2 + Prob.Rng.int rng 8 in
  let d = 2 + Prob.Rng.int rng (c - 1) in
  let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
  let strat = random_strategy rng ~c ~d in
  let objective = random_objective rng ~m in
  (inst, strat, objective)

let prop_bounds_bracket_nominal =
  QCheck.Test.make ~name:"ep_bounds bracket nominal EP (eps <= 0.1)"
    ~count:200
    (QCheck.int_range 0 999999)
    (fun seed ->
       let rng = Prob.Rng.create ~seed in
       let inst, strat, objective = random_setup rng in
       let eps = Prob.Rng.float rng 0.1 in
       let tv =
         if Prob.Rng.bool rng then infinity else Prob.Rng.float rng 0.3
       in
       let u = Uncertainty.uniform ~tv eps in
       let nominal = Strategy.expected_paging ~objective inst strat in
       let b = Uncertainty.ep_bounds ~objective u inst strat in
       let robust = Uncertainty.robust_ep ~objective u inst strat in
       let optimistic = Uncertainty.optimistic_ep ~objective u inst strat in
       let tol = 1e-9 *. float_of_int inst.Instance.c in
       if not (b.Uncertainty.lo <= nominal +. tol
               && nominal <= b.Uncertainty.hi +. tol) then
         QCheck.Test.fail_reportf "nominal %.17g outside [%.17g, %.17g]"
           nominal b.Uncertainty.lo b.Uncertainty.hi;
       if robust < nominal -. tol then
         QCheck.Test.fail_reportf "robust %.17g below nominal %.17g"
           robust nominal;
       if robust > b.Uncertainty.hi +. tol then
         QCheck.Test.fail_reportf "robust %.17g above hi %.17g"
           robust b.Uncertainty.hi;
       if optimistic > nominal +. tol then
         QCheck.Test.fail_reportf "optimistic %.17g above nominal %.17g"
           optimistic nominal;
       if optimistic < b.Uncertainty.lo -. tol then
         QCheck.Test.fail_reportf "optimistic %.17g below lo %.17g"
           optimistic b.Uncertainty.lo;
       true)

let prop_robust_monotone =
  QCheck.Test.make ~name:"robust_ep monotone in eps and tv" ~count:150
    (QCheck.int_range 0 999999)
    (fun seed ->
       let rng = Prob.Rng.create ~seed in
       let inst, strat, objective = random_setup rng in
       let tol = 1e-9 *. float_of_int inst.Instance.c in
       let e1 = Prob.Rng.float rng 0.1 in
       let e2 = e1 +. Prob.Rng.float rng (0.1 -. Float.min e1 0.1) in
       let r1 =
         Uncertainty.robust_ep ~objective (Uncertainty.uniform e1) inst strat
       and r2 =
         Uncertainty.robust_ep ~objective (Uncertainty.uniform e2) inst strat
       in
       if r1 > r2 +. tol then
         QCheck.Test.fail_reportf
           "robust_ep not monotone in eps: eps %.4g -> %.17g, eps %.4g -> %.17g"
           e1 r1 e2 r2;
       let t1 = Prob.Rng.float rng 0.2 in
       let t2 = t1 +. Prob.Rng.float rng 0.2 in
       let eps = Prob.Rng.float rng 0.1 in
       let s1 =
         Uncertainty.robust_ep ~objective
           (Uncertainty.uniform ~tv:t1 eps) inst strat
       and s2 =
         Uncertainty.robust_ep ~objective
           (Uncertainty.uniform ~tv:t2 eps) inst strat
       in
       if s1 > s2 +. tol then
         QCheck.Test.fail_reportf
           "robust_ep not monotone in tv: tv %.4g -> %.17g, tv %.4g -> %.17g"
           t1 s1 t2 s2;
       true)

(* Random in-ball perturbations: transfer mass between random cell
   pairs while honoring per-entry ε, entry range and the tv budget; the
   perturbed instance's EP must stay within the certified envelope. *)
let prop_sampled_perturbations_within_bounds =
  QCheck.Test.make ~name:"sampled in-ball perturbations stay within bounds"
    ~count:150
    (QCheck.int_range 0 999999)
    (fun seed ->
       let rng = Prob.Rng.create ~seed in
       let inst, strat, objective = random_setup rng in
       let eps = Prob.Rng.float rng 0.1 in
       let tv = if Prob.Rng.bool rng then infinity else Prob.Rng.float rng 0.2 in
       let u = Uncertainty.uniform ~tv eps in
       let c = inst.Instance.c in
       let rows =
         Array.map
           (fun row ->
              let q = Array.copy row in
              (* moved.(j) tracks |q_j − p_j| headroom against ε *)
              let moved = Array.make c 0.0 in
              let budget = ref tv in
              for _ = 1 to 2 * c do
                let a = Prob.Rng.int rng c and b = Prob.Rng.int rng c in
                if a <> b then begin
                  let cap =
                    Float.min
                      (Float.min (eps -. moved.(a)) (eps -. moved.(b)))
                      (Float.min q.(a) (1.0 -. q.(b)))
                  in
                  let cap =
                    if Float.is_finite !budget then Float.min cap !budget
                    else cap
                  in
                  if cap > 0.0 then begin
                    let delta = Prob.Rng.float rng cap in
                    q.(a) <- q.(a) -. delta;
                    q.(b) <- q.(b) +. delta;
                    moved.(a) <- moved.(a) +. delta;
                    moved.(b) <- moved.(b) +. delta;
                    if Float.is_finite !budget then budget := !budget -. delta
                  end
                end
              done;
              q)
           inst.Instance.p
       in
       let perturbed = Instance.create ~d:inst.Instance.d rows in
       let ep = Strategy.expected_paging ~objective perturbed strat in
       let b = Uncertainty.ep_bounds ~objective u inst strat in
       let robust = Uncertainty.robust_ep ~objective u inst strat in
       let optimistic = Uncertainty.optimistic_ep ~objective u inst strat in
       let tol = 1e-6 *. float_of_int c in
       if ep > robust +. tol then
         QCheck.Test.fail_reportf
           "sampled EP %.17g exceeds robust_ep %.17g" ep robust;
       if ep < optimistic -. tol then
         QCheck.Test.fail_reportf
           "sampled EP %.17g below optimistic_ep %.17g" ep optimistic;
       if ep > b.Uncertainty.hi +. tol || ep < b.Uncertainty.lo -. tol then
         QCheck.Test.fail_reportf "sampled EP %.17g outside [%.17g, %.17g]"
           ep b.Uncertainty.lo b.Uncertainty.hi;
       true)

(* -------------------- degenerate balls -------------------- *)

let test_degenerate_balls () =
  let rng = Prob.Rng.create ~seed:7 in
  for _ = 1 to 20 do
    let inst, strat, objective = random_setup rng in
    let nominal = Strategy.expected_paging ~objective inst strat in
    let tol = 1e-9 *. float_of_int inst.Instance.c in
    (* eps = 0: the ball is the single nominal matrix *)
    let u0 = Uncertainty.uniform 0.0 in
    check (float_t tol) "eps=0 robust = nominal" nominal
      (Uncertainty.robust_ep ~objective u0 inst strat);
    let b0 = Uncertainty.ep_bounds ~objective u0 inst strat in
    if b0.Uncertainty.hi -. b0.Uncertainty.lo > tol then
      Alcotest.failf "eps=0 bounds not tight: [%g, %g]"
        b0.Uncertainty.lo b0.Uncertainty.hi;
    (* tv = 0: no mass may move regardless of eps *)
    let utv = Uncertainty.uniform ~tv:0.0 0.1 in
    check (float_t tol) "tv=0 robust = nominal" nominal
      (Uncertainty.robust_ep ~objective utv inst strat);
    check (float_t tol) "tv=0 optimistic = nominal" nominal
      (Uncertainty.optimistic_ep ~objective utv inst strat)
  done

let test_per_row_eps () =
  let inst =
    Instance.create ~d:2
      [| [| 0.6; 0.3; 0.1 |]; [| 0.2; 0.5; 0.3 |] |]
  in
  let strat = Strategy.of_sizes ~order:[| 0; 1; 2 |] ~sizes:[| 2; 1 |] in
  (* per-row ball with one exact row is between the two uniform balls *)
  let r_mixed =
    Uncertainty.robust_ep (Uncertainty.per_row [| 0.05; 0.0 |]) inst strat
  and r_none = Uncertainty.robust_ep (Uncertainty.uniform 0.0) inst strat
  and r_full = Uncertainty.robust_ep (Uncertainty.uniform 0.05) inst strat in
  if not (r_none -. 1e-12 <= r_mixed && r_mixed <= r_full +. 1e-12) then
    Alcotest.failf "per-row robust %.17g outside [%.17g, %.17g]"
      r_mixed r_none r_full;
  (* validation: wrong length is rejected *)
  (match Uncertainty.validate (Uncertainty.per_row [| 0.1 |]) ~m:2 with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "per_row length mismatch accepted");
  (* constructor range checks *)
  (match Uncertainty.uniform 1.5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "eps > 1 accepted");
  match Uncertainty.uniform ~tv:(-0.1) 0.05 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative tv accepted"

(* -------------------- interval arithmetic -------------------- *)

(* Dyadic operands (k/1024) are exact in both representations, so the
   rational result of any +,−,×,Σ,Π pipeline must land inside the
   directed-rounding interval. *)
let prop_interval_encloses_rational =
  QCheck.Test.make ~name:"interval ops enclose exact rational results"
    ~count:300
    (QCheck.int_range 0 999999)
    (fun seed ->
       let rng = Prob.Rng.create ~seed in
       let den = 1024 in
       let dyadic () =
         let n = Prob.Rng.int rng (den + 1) in
         (float_of_int n /. float_of_int den, Q.of_ints n den)
       in
       let a_f, a_q = dyadic () and b_f, b_q = dyadic () in
       let c_f, c_q = dyadic () and d_f, d_q = dyadic () in
       let ia = I.exact a_f and ib = I.exact b_f in
       let ic = I.exact c_f and id_ = I.exact d_f in
       let checks =
         [ ("add", I.add ia ib, Q.(a_q + b_q));
           ("sub", I.sub ia ib, Q.(a_q - b_q));
           ("mul", I.mul ia ib, Q.(a_q * b_q));
           ("scale", I.scale a_f ib, Q.(a_q * b_q));
           ("sum", I.sum [| ia; ib; ic; id_ |],
            Q.sum [ a_q; b_q; c_q; d_q ]);
           ("product", I.product_nonneg [| ia; ib; ic; id_ |],
            Q.product [ a_q; b_q; c_q; d_q ]);
           ( "pipeline",
             I.sub (I.mul (I.add ia ib) (I.sub I.one ic)) (I.mul id_ ia),
             Q.(((a_q + b_q) * (one - c_q)) - (d_q * a_q)) );
         ]
       in
       List.iter
         (fun (name, iv, exact) ->
            (* the exact value here is dyadic with denominator ≤ 2^40,
               so to_float is lossless *)
            if not (I.contains iv (Q.to_float exact)) then
              QCheck.Test.fail_reportf
                "%s: exact %s outside %s" name (Q.to_string exact)
                (I.to_string iv))
         checks;
       true)

let test_interval_basics () =
  (match I.make 1.0 0.0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "inverted interval accepted");
  (match I.make Float.nan 1.0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "NaN endpoint accepted");
  let iv = I.make 0.25 0.5 in
  check (float_t 0.0) "lo" 0.25 (I.lo iv);
  check (float_t 0.0) "hi" 0.5 (I.hi iv);
  check (float_t 0.0) "width" 0.25 (I.width iv);
  check Alcotest.bool "contains mid" true (I.contains iv 0.3);
  check Alcotest.bool "excludes outside" false (I.contains iv 0.6);
  let h = I.hull (I.exact 0.1) (I.exact 0.9) in
  check Alcotest.bool "hull spans" true
    (I.lo h <= 0.1 && I.hi h >= 0.9);
  let neg = I.neg iv in
  check (float_t 0.0) "neg lo" (-0.5) (I.lo neg);
  check (float_t 0.0) "neg hi" (-0.25) (I.hi neg);
  let cl = I.clamp ~lo:0.0 ~hi:0.4 iv in
  check Alcotest.bool "clamp intersects" true
    (I.lo cl >= 0.25 -. 1e-15 && I.hi cl <= 0.4 +. 1e-15);
  (match I.clamp ~lo:0.6 ~hi:0.7 iv with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty clamp intersection accepted");
  (match I.product_nonneg [| I.make (-0.5) 0.5 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative operand accepted in product_nonneg")

let () =
  Alcotest.run "uncertainty"
    [ ( "oracle",
        [ qt prop_robust_matches_rational_oracle ] );
      ( "bounds",
        [ qt prop_bounds_bracket_nominal;
          qt prop_robust_monotone;
          qt prop_sampled_perturbations_within_bounds;
          Alcotest.test_case "degenerate balls" `Quick test_degenerate_balls;
          Alcotest.test_case "per-row eps" `Quick test_per_row_eps;
        ] );
      ( "interval",
        [ qt prop_interval_encloses_rational;
          Alcotest.test_case "interval basics" `Quick test_interval_basics;
        ] );
    ]
