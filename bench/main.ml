(* Experiment harness: regenerates every quantitative claim in Bar-Noy &
   Malewicz (PODC'02 / J. Algorithms 2004). The paper is a theory paper
   with no empirical tables, so each worked example, bound, and analytic
   curve becomes an experiment (E1..E21; see DESIGN.md section 3 and
   EXPERIMENTS.md for the mapping). Each experiment prints its table and
   a shape check; Bechamel micro-benchmarks (E11) measure the solvers.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- e3 e9
   Skip micro-benchmarks: dune exec bench/main.exe -- --no-bechamel *)

module Q = Numeric.Rational
module Instance = Confcall.Instance
module Strategy = Confcall.Strategy
module Objective = Confcall.Objective
module Order_dp = Confcall.Order_dp
module Greedy = Confcall.Greedy
module Single = Confcall.Single
module Optimal = Confcall.Optimal
module Bounds = Confcall.Bounds
module Adaptive = Confcall.Adaptive
module Yellow_pages = Confcall.Yellow_pages
module Signature = Confcall.Signature
module Bandwidth = Confcall.Bandwidth
module Miss = Confcall.Miss
module Hardness = Confcall.Hardness

module J = Wire.Json

(* id, pass, detail, machine-readable metrics (see [json_out]). *)
let results : (string * bool * string * (string * J.t) list) list ref =
  ref []

let record ~id ~pass ?(metrics = []) detail =
  results := (id, pass, detail, metrics) :: !results;
  Printf.printf "shape check [%s]: %s %s\n\n" id
    (if pass then "PASS" else "FAIL")
    detail

(* --json-out DIR: after the run, one BENCH_<id>.json per experiment
   with the shape-check verdict and any metrics the experiment
   recorded. *)
let json_out : string option ref = ref None

let json_out_result dir (id, pass, detail, metrics) =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id) in
  let record =
    J.Obj
      ([ ("id", J.Str id); ("pass", J.Bool pass); ("detail", J.Str detail) ]
      @ metrics)
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string record ^ "\n"))

let header ~id ~title ~claim =
  Printf.printf "=== %s: %s ===\n" (String.uppercase_ascii id) title;
  Printf.printf "paper: %s\n\n" claim

(* ------------------------------------------------------------------ *)
(* E1: uniform single device, d = 2 -> EP = 3c/4 (Section 1.1)         *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header ~id:"e1" ~title:"uniform single device, two rounds"
    ~claim:
      "for a uniform device and d = 2, the best strategy pages half the \
       cells then the rest: EP = 3c/4 (a c/4 saving over blanket paging)";
  Printf.printf "%8s %12s %12s %12s %10s\n" "c" "DP" "3c/4" "blanket" "saving";
  let ok = ref true in
  List.iter
    (fun c ->
      let inst = Instance.all_uniform ~m:1 ~c ~d:2 in
      let dp = (Single.solve inst).Order_dp.expected_paging in
      let closed = 3.0 *. float_of_int c /. 4.0 in
      if abs_float (dp -. closed) > 1e-9 then ok := false;
      Printf.printf "%8d %12.2f %12.2f %12d %10.2f\n" c dp closed c
        (float_of_int c -. dp))
    [ 4; 8; 16; 64; 256; 512 ];
  record ~id:"e1" ~pass:!ok "DP equals the 3c/4 closed form exactly"

(* ------------------------------------------------------------------ *)
(* E2: approximation ratio vs exhaustive optimum (Theorem 4.8, L. 4.3) *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header ~id:"e2" ~title:"heuristic vs exact optimum on random instances"
    ~claim:
      "greedy EP <= e/(e-1) ~ 1.5820 x OPT always (Theorem 4.8); <= 4/3 \
       when m = d = 2 (Lemma 4.3); ratio can reach 320/317 ~ 1.0095";
  Printf.printf "%6s %4s %4s %8s %10s %10s %10s %10s\n" "m" "d" "c" "trials"
    "mean" "max" "bound" "greedy=opt";
  let ok = ref true in
  let worst = ref 1.0 in
  List.iter
    (fun (m, d, c) ->
      let rng = Prob.Rng.create ~seed:(1000 + (m * 100) + (d * 10) + c) in
      let trials = 40 in
      let acc = Prob.Stats.Acc.create () in
      let max_ratio = ref 1.0 and ties = ref 0 in
      for t = 1 to trials do
        let inst =
          if t mod 2 = 0 then Instance.random_uniform_simplex rng ~m ~c ~d
          else Instance.random_zipf rng ~s:1.0 ~m ~c ~d
        in
        let g = (Greedy.solve inst).Order_dp.expected_paging in
        let o = (Optimal.exhaustive inst).Optimal.expected_paging in
        let ratio = g /. o in
        Prob.Stats.Acc.add acc ratio;
        if ratio > !max_ratio then max_ratio := ratio;
        if ratio < 1.0 -. 1e-9 then ok := false;
        if abs_float (ratio -. 1.0) < 1e-12 then incr ties
      done;
      let bound =
        if m = 2 && d = 2 then 4.0 /. 3.0 else Greedy.approximation_factor
      in
      if !max_ratio > bound +. 1e-9 then ok := false;
      if !max_ratio > !worst then worst := !max_ratio;
      Printf.printf "%6d %4d %4d %8d %10.4f %10.4f %10.4f %7d/%d\n" m d c
        trials (Prob.Stats.Acc.mean acc) !max_ratio bound !ties trials)
    [ 2, 2, 8; 2, 3, 8; 3, 2, 7; 3, 3, 7; 4, 2, 6; 2, 2, 10 ];
  record ~id:"e2" ~pass:!ok
    (Printf.sprintf
       "all ratios within proven bounds; worst observed %.4f (bound %.4f)"
       !worst Greedy.approximation_factor)

(* ------------------------------------------------------------------ *)
(* E3: the 320/317 lower-bound instance (Section 4.3)                  *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header ~id:"e3" ~title:"the Section 4.3 performance-gap instance"
    ~claim:
      "m = 2, c = 8, d = 2, p(1,1) = 2/7, p(2,1) = p(1,7) = p(1,8) = 0, \
       rest 1/7: OPT pages cells 2..6 first (EP = 317/49), the heuristic \
       pages 1..5 (EP = 320/49); ratio exactly 320/317";
  let s = Q.of_ints 1 7 and z = Q.zero in
  let exact =
    Instance.Exact.create ~d:2
      [|
        [| Q.of_ints 2 7; s; s; s; s; s; z; z |];
        [| z; s; s; s; s; s; s; s |];
      |]
  in
  let opt_strategy, opt_ep = Optimal.exhaustive_exact exact in
  let float_inst = Instance.Exact.to_float exact in
  let heur = Greedy.solve float_inst in
  let heur_ep = Strategy.expected_paging_exact exact heur.Order_dp.strategy in
  let ratio = Q.div heur_ep opt_ep in
  Printf.printf "%-22s %-22s %s\n" "quantity" "strategy" "exact EP";
  Printf.printf "%-22s %-22s %s = %.6f\n" "optimal"
    (Strategy.to_string opt_strategy)
    (Q.to_string opt_ep) (Q.to_float opt_ep);
  Printf.printf "%-22s %-22s %s = %.6f\n" "heuristic"
    (Strategy.to_string heur.Order_dp.strategy)
    (Q.to_string heur_ep) (Q.to_float heur_ep);
  Printf.printf "%-22s %-22s %s = %.6f\n" "ratio" "-" (Q.to_string ratio)
    (Q.to_float ratio);
  let pass =
    Q.equal opt_ep (Q.of_ints 317 49)
    && Q.equal heur_ep (Q.of_ints 320 49)
    && Q.equal ratio (Q.of_ints 320 317)
  in
  record ~id:"e3" ~pass "exact rational match: 317/49, 320/49, 320/317"

(* ------------------------------------------------------------------ *)
(* E4: expected paging vs delay budget                                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header ~id:"e4" ~title:"delay/paging tradeoff"
    ~claim:
      "the whole point of d-round paging: EP decreases in d (remark after \
       Lemma 2.1), steeply at first (d = 1 is blanket paging)";
  let c = 64 in
  let rng = Prob.Rng.create ~seed:4242 in
  let ms = [ 1; 2; 4 ] in
  let bases =
    List.map (fun m -> m, Instance.random_zipf rng ~s:1.1 ~m ~c ~d:1) ms
  in
  let uniform_base = Instance.all_uniform ~m:1 ~c ~d:1 in
  Printf.printf "%4s" "d";
  List.iter (fun m -> Printf.printf "%12s" (Printf.sprintf "zipf m=%d" m)) ms;
  Printf.printf "%12s\n" "uniform m=1";
  let ds = [ 1; 2; 3; 4; 5; 6; 8; 10; 12 ] in
  let columns = Array.make (List.length ms + 1) [] in
  List.iter
    (fun d ->
      Printf.printf "%4d" d;
      List.iteri
        (fun i (_, base) ->
          let ep =
            (Greedy.solve (Instance.with_d base d)).Order_dp.expected_paging
          in
          columns.(i) <- ep :: columns.(i);
          Printf.printf "%12.2f" ep)
        bases;
      let ep =
        (Greedy.solve (Instance.with_d uniform_base d)).Order_dp.expected_paging
      in
      columns.(List.length ms) <- ep :: columns.(List.length ms);
      Printf.printf "%12.2f\n" ep)
    ds;
  let ok =
    Array.for_all
      (fun col ->
        Numeric.Convex.is_nonincreasing ~eps:1e-9
          (Array.of_list (List.rev col)))
      columns
  in
  record ~id:"e4" ~pass:ok "every curve is non-increasing in d"

(* ------------------------------------------------------------------ *)
(* E5: cost of conference size                                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header ~id:"e5" ~title:"expected paging vs number of conferees"
    ~claim:
      "conference calls are intrinsically harder as m grows: the search \
       stops only when all m devices are inside the paged prefix, so EP \
       climbs toward blanket cost";
  let c = 64 and d = 3 in
  let rng = Prob.Rng.create ~seed:5252 in
  let all_rows =
    Array.init 10 (fun _ -> Prob.Dist.shuffled rng (Prob.Dist.zipf ~s:1.1 c))
  in
  Printf.printf "%4s %12s %12s %12s %13s\n" "m" "greedy" "lower-bound"
    "blanket" "% of blanket";
  let eps = ref [] in
  for m = 1 to 10 do
    let inst = Instance.create ~d (Array.sub all_rows 0 m) in
    let ep = (Greedy.solve inst).Order_dp.expected_paging in
    let lb = Bounds.lower_bound inst in
    eps := ep :: !eps;
    Printf.printf "%4d %12.2f %12.2f %12d %12.1f%%\n" m ep lb c
      (100.0 *. ep /. float_of_int c)
  done;
  let arr = Array.of_list (List.rev !eps) in
  let ok = ref true in
  Array.iteri
    (fun i ep -> if i > 0 && ep < arr.(i - 1) -. 1e-6 then ok := false)
    arr;
  record ~id:"e5" ~pass:!ok
    "EP non-decreasing in m on nested device sets, always below blanket"

(* ------------------------------------------------------------------ *)
(* E6: adaptive vs oblivious (Section 5)                               *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header ~id:"e6" ~title:"adaptive re-planning vs oblivious strategies"
    ~claim:
      "Section 5 proposes re-running the heuristic each round on \
       conditional probabilities; adaptive strategies may achieve lower \
       expected paging (the analysis is left open)";
  let rng = Prob.Rng.create ~seed:6262 in
  let trials = 25 in
  let m = 2 and c = 7 and d = 3 in
  let acc_obl = Prob.Stats.Acc.create () in
  let acc_ada = Prob.Stats.Acc.create () in
  let acc_opt = Prob.Stats.Acc.create () in
  let ok = ref true in
  let adaptive_beats_optimal = ref 0 in
  for _ = 1 to trials do
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let obl = (Greedy.solve inst).Order_dp.expected_paging in
    let ada = Adaptive.greedy_adaptive_ep inst in
    let opt = (Optimal.exhaustive inst).Optimal.expected_paging in
    if ada > obl +. 1e-9 then ok := false;
    if ada < opt -. 1e-9 then incr adaptive_beats_optimal;
    Prob.Stats.Acc.add acc_obl obl;
    Prob.Stats.Acc.add acc_ada ada;
    Prob.Stats.Acc.add acc_opt opt
  done;
  Printf.printf "random instances (m=%d, c=%d, d=%d, %d trials):\n" m c d
    trials;
  Printf.printf "%-28s %10.4f\n" "mean EP, greedy oblivious"
    (Prob.Stats.Acc.mean acc_obl);
  Printf.printf "%-28s %10.4f\n" "mean EP, greedy adaptive"
    (Prob.Stats.Acc.mean acc_ada);
  Printf.printf "%-28s %10.4f\n" "mean EP, optimal oblivious"
    (Prob.Stats.Acc.mean acc_opt);
  Printf.printf
    "adaptive beats the OPTIMAL oblivious strategy on %d/%d instances\n"
    !adaptive_beats_optimal trials;
  record ~id:"e6" ~pass:!ok
    "adaptive greedy never exceeds oblivious greedy (exact evaluation)"

(* ------------------------------------------------------------------ *)
(* E7: Yellow Pages (Section 5)                                        *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header ~id:"e7" ~title:"Yellow Pages: find any one device"
    ~claim:
      "the paper's heuristic is NOT constant-factor for find-any; a \
       best-single-device policy is the m-approximation candidate";
  let rng = Prob.Rng.create ~seed:7272 in
  let trials = 30 in
  let m = 3 and c = 8 and d = 2 in
  let acc_nat = Prob.Stats.Acc.create () in
  let acc_single = Prob.Stats.Acc.create () in
  for _ = 1 to trials do
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let opt = (Yellow_pages.exhaustive inst).Optimal.expected_paging in
    Prob.Stats.Acc.add acc_nat
      ((Yellow_pages.natural_heuristic inst).Order_dp.expected_paging /. opt);
    Prob.Stats.Acc.add acc_single
      ((Yellow_pages.best_single_device inst).Order_dp.expected_paging /. opt)
  done;
  Printf.printf
    "random instances (m=%d, c=%d, d=%d, %d trials), ratio to exact OPT:\n" m
    c d trials;
  Printf.printf "  natural (cell-weight) heuristic : mean %.4f\n"
    (Prob.Stats.Acc.mean acc_nat);
  Printf.printf "  best-single-device heuristic    : mean %.4f\n\n"
    (Prob.Stats.Acc.mean acc_single);
  Printf.printf "adversarial family (d = 2): natural/single ratio by size\n";
  Printf.printf "%8s %6s %10s %10s %8s\n" "blocks" "c" "natural" "single"
    "ratio";
  let ratios =
    List.map
      (fun blocks ->
        let adv = Yellow_pages.adversarial_instance ~blocks ~d:2 in
        let nat =
          (Yellow_pages.natural_heuristic adv).Order_dp.expected_paging
        in
        let single =
          (Yellow_pages.best_single_device adv).Order_dp.expected_paging
        in
        Printf.printf "%8d %6d %10.3f %10.3f %8.3f\n" blocks adv.Instance.c
          nat single (nat /. single);
        nat /. single)
      [ 2; 4; 8; 16; 32 ]
  in
  let increasing =
    let rec go = function
      | a :: (b :: _ as rest) -> a < b +. 1e-9 && go rest
      | _ -> true
    in
    go ratios
  in
  let last = List.nth ratios (List.length ratios - 1) in
  record ~id:"e7"
    ~pass:(increasing && last > 2.0)
    (Printf.sprintf
       "natural-heuristic ratio grows with instance size (up to %.2f)" last)

(* ------------------------------------------------------------------ *)
(* E8: bandwidth-limited paging (Section 5)                            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header ~id:"e8" ~title:"bandwidth-limited paging: at most b cells/round"
    ~claim:
      "Section 5: the machinery extends to a per-round cap b (feasible \
       iff c <= b*d); tighter caps cost more expected paging";
  let c = 60 and d = 10 and m = 2 in
  let rng = Prob.Rng.create ~seed:8282 in
  let inst = Instance.random_zipf rng ~s:1.1 ~m ~c ~d in
  let bs = [| 4; 6; 8; 10; 15; 20; 30; 60 |] in
  let eps = Bandwidth.sweep inst ~bs in
  Printf.printf "%6s %12s %10s\n" "b" "EP" "feasible";
  Array.iteri
    (fun i b ->
      if Float.is_nan eps.(i) then Printf.printf "%6d %12s %10s\n" b "-" "no"
      else Printf.printf "%6d %12.3f %10s\n" b eps.(i) "yes")
    bs;
  let feasible =
    Array.to_list eps |> List.filter (fun x -> not (Float.is_nan x))
  in
  let ok =
    Bandwidth.feasible ~c ~d ~b:6
    && (not (Bandwidth.feasible ~c ~d ~b:4))
    && Numeric.Convex.is_nonincreasing ~eps:1e-9 (Array.of_list feasible)
  in
  record ~id:"e8" ~pass:ok
    "b < c/d infeasible; EP non-increasing as the cap loosens"

(* ------------------------------------------------------------------ *)
(* E9: NP-hardness reduction (Section 3)                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header ~id:"e9" ~title:"the Lemma 3.2 reduction, executed"
    ~claim:
      "Quasipartition1 is positive iff the reduced Conference Call \
       instance (m = 2, d = 2) reaches expected paging exactly LB = c - \
       f(1/2, 2c/3)/((c-1/2)(c-1)) — verified in exact rationals";
  Printf.printf "LB targets: ";
  List.iter
    (fun c ->
      let lb = Hardness.qp1_lower_bound ~c in
      Printf.printf "c=%d: %s (%.4f)  " c (Q.to_string lb) (Q.to_float lb))
    [ 6; 9; 12 ];
  print_newline ();
  let rng = Prob.Rng.create ~seed:9292 in
  let trials = 40 in
  let agree = ref 0 and positive = ref 0 in
  for _ = 1 to trials do
    let sizes = Array.init 6 (fun _ -> Q.of_int (Prob.Rng.int rng 7)) in
    let total = Q.sum (Array.to_list sizes) in
    let sizes =
      if
        Q.sign total <= 0
        || Array.exists (fun s -> Q.compare s total >= 0) sizes
      then Array.map Q.of_int [| 1; 1; 1; 1; 1; 1 |]
      else sizes
    in
    let brute = Hardness.quasipartition1_brute sizes <> None in
    let via = Hardness.qp1_answer_via_conference sizes in
    if brute then incr positive;
    if brute = via then incr agree
  done;
  Printf.printf
    "random Quasipartition1 instances (c = 6): %d/%d positive, oracle \
     agreement %d/%d\n"
    !positive trials !agree trials;
  let chain_pos = Hardness.partition_answer_via_chain [| 1; 2; 3; 4 |] in
  let chain_neg = Hardness.partition_answer_via_chain [| 1; 1; 1; 100 |] in
  Printf.printf
    "full chain Partition -> QP1 -> CC oracle: {1,2,3,4} -> %b, \
     {1,1,1,100} -> %b\n"
    chain_pos chain_neg;
  record ~id:"e9"
    ~pass:(!agree = trials && chain_pos && not chain_neg)
    "reduction decisions agree with brute force on every instance"

(* ------------------------------------------------------------------ *)
(* E10: end-to-end system simulation                                   *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header ~id:"e10" ~title:"end-to-end cellular simulation"
    ~claim:
      "selective multi-round paging driven by estimated location profiles \
       pages fewer cells than the deployed blanket scheme, trading delay \
       for wireless-link usage (the Section 1 motivation)";
  let hex = Cellsim.Hex.create ~rows:8 ~cols:8 in
  let users = 80 in
  let config =
    {
      Cellsim.Sim.hex;
      mobility = Cellsim.Mobility.random_walk hex ~stay:0.4;
      areas = Cellsim.Location_area.grid hex ~block_rows:4 ~block_cols:4;
      users;
      traffic =
        Cellsim.Traffic.create ~rate:0.6
          ~group_size:(Cellsim.Traffic.Uniform_range (2, 4))
          ~users;
      schemes =
        [
          Cellsim.Sim.Blanket;
          Cellsim.Sim.Selective 2;
          Cellsim.Sim.Selective 3;
          Cellsim.Sim.Selective 5;
        ];
      reporting = Cellsim.Reporting.Area;
      mobility_schedule = [];
      call_duration = 0.0;
      track_ongoing = true;
      faults = None;
      estimator = Cellsim.Sim.Live;
      aging = None;
      profile_decay = 0.9;
      profile_smoothing = 0.05;
      duration = 300.0;
      seed = 10102;
    }
  in
  let r = Cellsim.Sim.run config in
  Printf.printf "%d users, %d calls, %d boundary reports\n\n"
    config.Cellsim.Sim.users r.Cellsim.Sim.total_calls r.Cellsim.Sim.updates;
  Printf.printf "%-14s %12s %14s %12s\n" "scheme" "cells/call" "expected/call"
    "rounds/call";
  List.iter
    (fun s ->
      let calls = float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls) in
      Printf.printf "%-14s %12.2f %14.2f %12.2f\n"
        (Cellsim.Sim.scheme_to_string s.Cellsim.Sim.scheme)
        (float_of_int s.Cellsim.Sim.cells_paged /. calls)
        (s.Cellsim.Sim.expected_paging /. calls)
        (float_of_int s.Cellsim.Sim.rounds_used /. calls))
    r.Cellsim.Sim.per_scheme;
  let cells scheme =
    (List.find
       (fun s -> s.Cellsim.Sim.scheme = scheme)
       r.Cellsim.Sim.per_scheme)
      .Cellsim.Sim.cells_paged
  in
  let ok =
    cells (Cellsim.Sim.Selective 2) < cells Cellsim.Sim.Blanket
    && cells (Cellsim.Sim.Selective 3) < cells (Cellsim.Sim.Selective 2)
  in
  record ~id:"e10" ~pass:ok
    "selective < blanket in ground-truth cells paged; deeper d pages less"

(* ------------------------------------------------------------------ *)
(* E12: optimal group sizes on flat instances (Lemma 3.4)              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header ~id:"e12" ~title:"group sizes on uniform instances vs Lemma 3.4"
    ~claim:
      "for flat (uniform) instances the optimal prefix sizes follow the \
       alpha/b recurrence: b_{k-1} = alpha_{k-1} b_k with alpha_1 = \
       m/(m+1), alpha_k = m/(m+1-alpha_{k-1}^m)";
  let c = 120 in
  Printf.printf "%4s %4s %-24s %-24s\n" "m" "d" "DP sizes" "Lemma 3.4 sizes";
  let ok = ref true in
  List.iter
    (fun (m, d) ->
      let inst = Instance.all_uniform ~m ~c ~d in
      let dp_sizes = (Greedy.solve inst).Order_dp.sizes in
      let fractions = Numeric.Lemma_bounds.optimal_group_fractions ~m ~d in
      let predicted = Array.map (fun f -> f *. float_of_int c) fractions in
      let show_i a =
        String.concat " " (Array.to_list (Array.map string_of_int a))
      in
      let show_f a =
        String.concat " "
          (Array.to_list (Array.map (fun x -> Printf.sprintf "%.1f" x) a))
      in
      Printf.printf "%4d %4d %-24s %-24s\n" m d (show_i dp_sizes)
        (show_f predicted);
      Array.iteri
        (fun j s ->
          if abs_float (float_of_int s -. predicted.(j)) > 2.0 then ok := false)
        dp_sizes)
    [ 2, 2; 2, 3; 2, 4; 3, 2; 3, 3; 4, 3 ];
  record ~id:"e12" ~pass:!ok
    "DP group sizes match the alpha/b recurrence within +/- 2 cells"

(* ------------------------------------------------------------------ *)
(* E13: Signature problem sweep (Section 5)                            *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header ~id:"e13" ~title:"Signature problem: find k of m"
    ~claim:
      "the Signature problem interpolates Yellow Pages (k = 1) and the \
       Conference Call (k = m); cost grows with k";
  let m = 6 and c = 48 and d = 4 in
  let rng = Prob.Rng.create ~seed:13131 in
  let inst = Instance.random_zipf rng ~s:1.0 ~m ~c ~d in
  let sweep = Signature.sweep inst in
  Printf.printf "%4s %12s\n" "k" "EP";
  Array.iteri (fun i ep -> Printf.printf "%4d %12.3f\n" (i + 1) ep) sweep;
  let yp =
    (Greedy.solve ~objective:Objective.Find_any inst).Order_dp.expected_paging
  in
  let cc = (Greedy.solve inst).Order_dp.expected_paging in
  let monotone = ref true in
  for i = 0 to m - 2 do
    if sweep.(i) > sweep.(i + 1) +. 1e-9 then monotone := false
  done;
  let ok =
    !monotone
    && abs_float (sweep.(0) -. yp) < 1e-9
    && abs_float (sweep.(m - 1) -. cc) < 1e-9
  in
  record ~id:"e13" ~pass:ok
    "monotone in k; endpoints equal Yellow Pages and Conference Call"

(* ------------------------------------------------------------------ *)
(* E14: imperfect detection (Section 5)                                *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header ~id:"e14" ~title:"imperfect detection and re-paging"
    ~claim:
      "Section 5: when a page misses a present device (response \
       collisions), expected cost rises and cells must be re-paged; the \
       classical greedy index rule handles m = 1";
  let c = 16 and d = 4 in
  let rng = Prob.Rng.create ~seed:14141 in
  let inst = Instance.random_zipf rng ~s:1.2 ~m:1 ~c ~d in
  let strategy = (Greedy.solve inst).Order_dp.strategy in
  let schedule = Miss.repeat_strategy strategy ~cycles:6 in
  Printf.printf "single device, greedy schedule repeated 6x:\n";
  Printf.printf "%6s %14s %12s\n" "q" "E[cells paged]" "P[found]";
  let costs = ref [] in
  List.iter
    (fun q ->
      let ep, success = Miss.single_device_exact inst ~q ~schedule in
      costs := ep :: !costs;
      Printf.printf "%6.2f %14.3f %12.6f\n" q ep success)
    [ 1.0; 0.9; 0.7; 0.5; 0.3 ];
  let increasing =
    let rec go = function
      | a :: (b :: _ as rest) -> a <= b +. 1e-9 && go rest
      | _ -> true
    in
    go (List.rev !costs)
  in
  let inst2 = Instance.random_zipf rng ~s:1.0 ~m:2 ~c:12 ~d:3 in
  let s2 = (Greedy.solve inst2).Order_dp.strategy in
  let sched2 = Miss.repeat_strategy s2 ~cycles:5 in
  let summary, success =
    Miss.simulate inst2 ~q:0.8 ~schedule:sched2 rng ~trials:20_000
  in
  Printf.printf
    "\nconference m=2, q=0.8, 5 cycles: E[cells] = %.2f (perfect-detection \
     EP %.2f), P[all found] = %.4f\n"
    summary.Prob.Stats.mean
    (Greedy.solve inst2).Order_dp.expected_paging
    success;
  record ~id:"e14"
    ~pass:(increasing && success > 0.95)
    "cost increases as detection degrades; re-paging recovers success"

(* ------------------------------------------------------------------ *)
(* E11: solver runtime (Theorem 4.8: O(c(m + dc)))                     *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let greedy_test ~m ~c ~d =
    let rng = Prob.Rng.create ~seed:(m + c + d) in
    let inst = Instance.random_zipf rng ~s:1.0 ~m ~c ~d in
    Test.make
      ~name:(Printf.sprintf "greedy m=%d c=%d d=%d" m c d)
      (Staged.stage (fun () -> ignore (Greedy.solve inst)))
  in
  let single_test ~c =
    let rng = Prob.Rng.create ~seed:c in
    let inst = Instance.random_zipf rng ~s:1.0 ~m:1 ~c ~d:5 in
    Test.make
      ~name:(Printf.sprintf "single-device c=%d" c)
      (Staged.stage (fun () -> ignore (Single.solve inst)))
  in
  let lb_test ~c =
    let rng = Prob.Rng.create ~seed:(2 * c) in
    let inst = Instance.random_zipf rng ~s:1.0 ~m:3 ~c ~d:4 in
    Test.make
      ~name:(Printf.sprintf "lower-bound c=%d" c)
      (Staged.stage (fun () -> ignore (Bounds.lower_bound inst)))
  in
  let exhaustive_test () =
    let rng = Prob.Rng.create ~seed:99 in
    let inst = Instance.random_uniform_simplex rng ~m:2 ~c:8 ~d:2 in
    Test.make ~name:"exhaustive m=2 c=8 d=2"
      (Staged.stage (fun () -> ignore (Optimal.exhaustive inst)))
  in
  Test.make_grouped ~name:"solvers"
    [
      greedy_test ~m:2 ~c:64 ~d:3;
      greedy_test ~m:2 ~c:256 ~d:3;
      greedy_test ~m:2 ~c:1024 ~d:3;
      greedy_test ~m:8 ~c:256 ~d:3;
      greedy_test ~m:2 ~c:256 ~d:8;
      single_test ~c:256;
      lb_test ~c:256;
      exhaustive_test ();
    ]

let e11 () =
  header ~id:"e11" ~title:"solver runtime micro-benchmarks (Bechamel)"
    ~claim:
      "Theorem 4.8: the heuristic runs in O(c(m + dc)) time — quadratic \
       in c for fixed d, linear in m and d";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None () in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (bechamel_tests ())
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) res [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Printf.printf "%-34s %16s\n" "benchmark" "time/run";
  let times = Hashtbl.create 8 in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] ->
        Hashtbl.replace times name ns;
        let pretty =
          if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        Printf.printf "%-34s %16s\n" name pretty
      | _ -> Printf.printf "%-34s %16s\n" name "(no estimate)")
    entries;
  let t c =
    Hashtbl.find_opt times (Printf.sprintf "solvers/greedy m=2 c=%d d=3" c)
  in
  let pass, detail =
    match t 64, t 256, t 1024 with
    | Some t64, Some t256, Some t1024 ->
      let g1 = t256 /. t64 and g2 = t1024 /. t256 in
      (* 4x the cells should cost ~16x for the quadratic DP; accept a
         broad band to stay robust on loaded machines. *)
      ( g1 > 4.0 && g2 > 4.0 && t1024 < 1e9,
        Printf.sprintf
          "c-scaling factors: 64->256: %.1fx, 256->1024: %.1fx (quadratic \
           DP predicts ~16x)"
          g1 g2 )
    | _ -> false, "missing estimates"
  in
  record ~id:"e11" ~pass detail

(* ------------------------------------------------------------------ *)
(* E15: the reporting/paging tradeoff (Section 1.1 background)         *)
(* ------------------------------------------------------------------ *)

let sim_config ?(users = 64) ?(rate = 0.5) ?(track_ongoing = true) ~schemes
    ~reporting ~call_duration ~seed () =
  let hex = Cellsim.Hex.create ~rows:8 ~cols:8 in
  {
    Cellsim.Sim.hex;
    mobility = Cellsim.Mobility.random_walk hex ~stay:0.4;
    areas = Cellsim.Location_area.grid hex ~block_rows:4 ~block_cols:4;
    users;
    traffic =
      Cellsim.Traffic.create ~rate ~group_size:(Cellsim.Traffic.Fixed 3) ~users;
    schemes;
    reporting;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule = [];
    call_duration;
    track_ongoing;
    faults = None;
    estimator = Cellsim.Sim.Live;
    aging = None;
    duration = 300.0;
    seed;
  }

let e15 () =
  header ~id:"e15"
    ~title:"reporting vs paging: the location-management tradeoff"
    ~claim:
      "Section 1.1: terminals that report more often are cheaper to page \
       and vice versa; location-area, movement-, distance- and time-based \
       policies trace out the tradeoff frontier";
  Printf.printf "%-14s %10s %14s %14s\n" "policy" "reports" "blanket/call"
    "selective/call";
  List.iter
    (fun reporting ->
      let r =
        Cellsim.Sim.run
          (sim_config
             ~schemes:[ Cellsim.Sim.Blanket; Cellsim.Sim.Selective 3 ]
             ~reporting ~call_duration:0.0 ~seed:15151 ())
      in
      let per_call s =
        float_of_int s.Cellsim.Sim.cells_paged
        /. float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls)
      in
      match r.Cellsim.Sim.per_scheme with
      | [ blanket; selective ] ->
        Printf.printf "%-14s %10d %14.2f %14.2f\n"
          (Cellsim.Reporting.to_string reporting)
          r.Cellsim.Sim.updates (per_call blanket) (per_call selective)
      | _ -> ())
    [
      Cellsim.Reporting.Area;
      Cellsim.Reporting.Movement 1;
      Cellsim.Reporting.Movement 3;
      Cellsim.Reporting.Movement 6;
      Cellsim.Reporting.Distance 2;
      Cellsim.Reporting.Distance 4;
      Cellsim.Reporting.Time 2;
      Cellsim.Reporting.Time 6;
    ];
  (* Shape: among movement policies, more reports <=> fewer cells paged. *)
  let find k =
    let r =
      Cellsim.Sim.run
        (sim_config
           ~schemes:[ Cellsim.Sim.Blanket ]
           ~reporting:(Cellsim.Reporting.Movement k) ~call_duration:0.0
           ~seed:15151 ())
    in
    let b = List.hd r.Cellsim.Sim.per_scheme in
    ( r.Cellsim.Sim.updates,
      float_of_int b.Cellsim.Sim.cells_paged
      /. float_of_int (Stdlib.max 1 b.Cellsim.Sim.calls) )
  in
  let u1, p1 = find 1 and u6, p6 = find 6 in
  record ~id:"e15"
    ~pass:(u1 > u6 && p1 < p6)
    (Printf.sprintf
       "movement-1: %d reports / %.1f cells-per-call vs movement-6: %d / %.1f"
       u1 p1 u6 p6)

(* ------------------------------------------------------------------ *)
(* E16: location-estimator ablation (counts vs mobility diffusion)     *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header ~id:"e16" ~title:"location-estimator ablation"
    ~claim:
      "the paging algorithms consume a probability vector whose quality \
       the paper abstracts away ([15,16]); diffusing the last known cell \
       through the known mobility model beats decayed visit counts when \
       reports are sparse";
  Printf.printf "%-14s %16s %16s %16s\n" "policy" "counts (true)"
    "diffuse (true)" "diffuse gain";
  let ok = ref true in
  List.iter
    (fun reporting ->
      let r =
        Cellsim.Sim.run
          (sim_config
             ~schemes:
               [ Cellsim.Sim.Selective 3; Cellsim.Sim.Selective_diffuse 3 ]
             ~reporting ~call_duration:0.0 ~seed:16161 ())
      in
      match r.Cellsim.Sim.per_scheme with
      | [ counts; diffuse ] ->
        let per_call s =
          float_of_int s.Cellsim.Sim.cells_paged
          /. float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls)
        in
        let pc = per_call counts and pd = per_call diffuse in
        Printf.printf "%-14s %16.2f %16.2f %15.1f%%\n"
          (Cellsim.Reporting.to_string reporting)
          pc pd
          (100.0 *. (pc -. pd) /. pc);
        (* Under the sparsest policy, diffusion must win clearly. *)
        if reporting = Cellsim.Reporting.Time 6 && pd >= pc then ok := false
      | _ -> ok := false)
    [
      Cellsim.Reporting.Area;
      Cellsim.Reporting.Distance 3;
      Cellsim.Reporting.Time 6;
    ];
  record ~id:"e16" ~pass:!ok
    "mobility-model diffusion pages fewer ground-truth cells when reports \
     are sparse"

(* ------------------------------------------------------------------ *)
(* E17: ongoing calls as a location source (Section 1.1)               *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header ~id:"e17" ~title:"ongoing calls as a free location source"
    ~claim:
      "Section 1.1: a device on an ongoing call communicates with base \
       stations continuously, so the system knows its cell and needs no \
       search; ablation: the same busy-line workload with and without \
       that continuous tracking";
  Printf.printf "%10s %10s %10s %10s %14s %16s\n" "mean len" "tracking"
    "calls" "skipped" "EP/call" "cells/call";
  let measure ~call_duration ~track_ongoing =
    let r =
      Cellsim.Sim.run
        (sim_config ~users:16 ~rate:1.2 ~track_ongoing
           ~schemes:[ Cellsim.Sim.Selective 3 ]
           ~reporting:Cellsim.Reporting.Area ~call_duration ~seed:17171 ())
    in
    let s = List.hd r.Cellsim.Sim.per_scheme in
    let calls = Stdlib.max 1 s.Cellsim.Sim.calls in
    let ep = s.Cellsim.Sim.expected_paging /. float_of_int calls in
    Printf.printf "%10.1f %10s %10d %10d %14.2f %16.2f\n" call_duration
      (if track_ongoing then "on" else "off")
      s.Cellsim.Sim.calls r.Cellsim.Sim.skipped_calls ep
      (float_of_int s.Cellsim.Sim.cells_paged /. float_of_int calls);
    ep, r.Cellsim.Sim.skipped_calls
  in
  let _ = measure ~call_duration:0.0 ~track_ongoing:true in
  let on4, skipped4 = measure ~call_duration:4.0 ~track_ongoing:true in
  let off4, _ = measure ~call_duration:4.0 ~track_ongoing:false in
  let on10, _ = measure ~call_duration:10.0 ~track_ongoing:true in
  let off10, _ = measure ~call_duration:10.0 ~track_ongoing:false in
  record ~id:"e17"
    ~pass:(skipped4 > 0 && on4 < off4 && on10 < off10)
    (Printf.sprintf
       "tracking ongoing calls lowers EP/call (%.2f -> %.2f at length 4, \
        %.2f -> %.2f at length 10)"
       off4 on4 off10 on10)

(* ------------------------------------------------------------------ *)
(* E18: solver shootout (design-choice ablation)                       *)
(* ------------------------------------------------------------------ *)

module Local_search = Confcall.Local_search
module Adaptive_dp = Confcall.Adaptive_dp
module Class_solver = Confcall.Class_solver
module Qap = Confcall.Qap

let e18 () =
  header ~id:"e18" ~title:"solver shootout: every algorithm on one batch"
    ~claim:
      "ablation of the repository's solver design choices: the greedy \
       order restriction (vs local search and the Section 5.1 QAP route), \
       obliviousness (vs the exact adaptive-within-order DP), and the \
       certified lower bound's tightness";
  let rng = Prob.Rng.create ~seed:18181 in
  let trials = 20 in
  let m = 2 and c = 8 and d = 3 in
  let sums = Hashtbl.create 8 in
  let add name v =
    Hashtbl.replace sums name
      (v +. try Hashtbl.find sums name with Not_found -> 0.0)
  in
  let wins = Hashtbl.create 8 in
  let win name =
    Hashtbl.replace wins name
      (1 + try Hashtbl.find wins name with Not_found -> 0)
  in
  for _ = 1 to trials do
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let opt = (Optimal.exhaustive inst).Optimal.expected_paging in
    let entries =
      [
        "greedy", (Greedy.solve inst).Order_dp.expected_paging;
        "local-search",
        (Local_search.hill_climb inst).Local_search.expected_paging;
        "qap (Sec 5.1)", snd (Qap.solve_conference_m2 ~rng inst);
        "adaptive-dp (within order)", Adaptive_dp.value inst;
        "adaptive OPT (unrestricted)", Adaptive_dp.unrestricted inst;
        "lower-bound", Bounds.lower_bound inst;
        "page-all", float_of_int c;
      ]
    in
    add "optimal (exhaustive)" opt;
    win "optimal (exhaustive)";
    List.iter
      (fun (name, v) ->
        add name v;
        if abs_float (v -. opt) < 1e-9 then win name)
      entries
  done;
  Printf.printf "mean EP over %d random instances (m=%d, c=%d, d=%d):\n"
    trials m c d;
  let rows =
    Hashtbl.fold (fun k v acc -> (v /. float_of_int trials, k) :: acc) sums []
  in
  List.iter
    (fun (mean, name) ->
      let w = try Hashtbl.find wins name with Not_found -> 0 in
      Printf.printf "  %-22s %8.4f   (= OPT on %d/%d)\n" name mean w trials)
    (List.sort compare rows);
  let mean name = Hashtbl.find sums name /. float_of_int trials in
  let pass =
    mean "lower-bound" <= mean "optimal (exhaustive)" +. 1e-9
    && mean "adaptive OPT (unrestricted)"
       <= mean "adaptive-dp (within order)" +. 1e-9
    && mean "adaptive-dp (within order)" <= mean "optimal (exhaustive)" +. 1e-9
    && mean "local-search" <= mean "greedy" +. 1e-9
    && mean "greedy" <= mean "page-all"
  in
  record ~id:"e18" ~pass
    "LB <= adaptive-DP <= OPT <= local-search <= greedy <= page-all (means)"

(* ------------------------------------------------------------------ *)
(* E19: coarse DP scaling (huge location areas)                        *)
(* ------------------------------------------------------------------ *)

let e19 () =
  header ~id:"e19" ~title:"coarse-cut DP at metropolitan scale"
    ~claim:
      "the O(d c^2) DP is quadratic in c (Theorem 4.8); restricting cut \
       points to block boundaries makes 100k-cell areas tractable with a \
       tiny quality loss (cuts only matter to the resolution of the \
       probability profile)";
  let rng = Prob.Rng.create ~seed:19191 in
  let m = 2 and d = 4 in
  Printf.printf "%8s %8s %12s %12s %10s %12s\n" "c" "block" "EP(coarse)"
    "EP(full)" "loss" "time(s)";
  let ok = ref true in
  List.iter
    (fun (c, blocks) ->
      let inst = Instance.random_zipf rng ~s:1.05 ~m ~c ~d in
      let order = Confcall.Instance.weight_order inst in
      let full =
        if c <= 4096 then
          Some (Order_dp.solve inst ~order).Order_dp.expected_paging
        else None
      in
      List.iter
        (fun block ->
          let t0 = Sys.time () in
          let coarse = Order_dp.solve_coarse ~block inst ~order in
          let elapsed = Sys.time () -. t0 in
          let loss =
            match full with
            | Some f ->
              if coarse.Order_dp.expected_paging < f -. 1e-9 then ok := false;
              Printf.sprintf "%.3f%%"
                (100.0 *. (coarse.Order_dp.expected_paging -. f) /. f)
            | None -> "-"
          in
          Printf.printf "%8d %8d %12.1f %12s %10s %12.3f\n" c block
            coarse.Order_dp.expected_paging
            (match full with Some f -> Printf.sprintf "%.1f" f | None -> "-")
            loss elapsed;
          if elapsed > 10.0 then ok := false)
        blocks)
    [ 1024, [ 8; 32 ]; 4096, [ 32 ]; 32768, [ 128 ]; 131072, [ 512 ] ];
  record ~id:"e19" ~pass:!ok
    "coarse DP never beats the full DP, runs in seconds at 131k cells"

(* ------------------------------------------------------------------ *)
(* E20: beyond the expectation — cost distributions and the frontier   *)
(* ------------------------------------------------------------------ *)

module Analysis = Confcall.Analysis

let e20 () =
  header ~id:"e20" ~title:"cost distributions and the delay/paging frontier"
    ~claim:
      "the paper optimizes the expectation of cells paged; the full \
       distribution is closed-form (stop after round r w.p. F_r - \
       F_{r-1}), exposing tails and the (E[rounds], EP) frontier a \
       designer actually navigates";
  let rng = Prob.Rng.create ~seed:20202 in
  let inst = Instance.random_zipf rng ~s:1.1 ~m:2 ~c:32 ~d:4 in
  let strategy = (Greedy.solve inst).Order_dp.strategy in
  let dist = Analysis.cost_distribution inst strategy in
  Printf.printf "greedy strategy on zipf m=2 c=32 d=4:\n";
  Printf.printf "  mean %.2f, sd %.2f, p50 %.0f, p90 %.0f, p99 %.0f\n"
    dist.Analysis.mean dist.Analysis.stddev
    (Analysis.quantile dist 0.5)
    (Analysis.quantile dist 0.9)
    (Analysis.quantile dist 0.99);
  Array.iteri
    (fun r p ->
      Printf.printf "  round %d: paged %3.0f cells with prob %.4f\n" (r + 1)
        dist.Analysis.support.(r) p)
    dist.Analysis.probabilities;
  print_newline ();
  Printf.printf "delay/paging frontier (greedy, d = 1..8):\n";
  Printf.printf "%6s %12s %12s\n" "d" "E[rounds]" "EP";
  let frontier = Analysis.delay_paging_frontier inst ~max_d:8 in
  Array.iteri
    (fun i (rounds, ep) -> Printf.printf "%6d %12.3f %12.2f\n" (i + 1) rounds ep)
    frontier;
  let mean_matches =
    abs_float (dist.Analysis.mean -. Strategy.expected_paging inst strategy)
    < 1e-9
  in
  let ep_monotone =
    let ok = ref true in
    for i = 0 to Array.length frontier - 2 do
      if snd frontier.(i + 1) > snd frontier.(i) +. 1e-9 then ok := false
    done;
    !ok
  in
  let rounds_monotone =
    let ok = ref true in
    for i = 0 to Array.length frontier - 2 do
      if fst frontier.(i + 1) < fst frontier.(i) -. 1e-9 then ok := false
    done;
    !ok
  in
  record ~id:"e20"
    ~pass:(mean_matches && ep_monotone && rounds_monotone)
    "distribution mean = Lemma 2.1 EP; frontier monotone both ways"

(* ------------------------------------------------------------------ *)
(* E21: canned scenarios, incl. a commuter day with regime changes     *)
(* ------------------------------------------------------------------ *)

let e21 () =
  header ~id:"e21" ~title:"scenario sweep: suburb, commuter day, busy campus"
    ~claim:
      "the selective schemes keep their advantage across qualitatively \
       different regimes: a calm suburb, a commuter day whose mobility \
       diverges from the system's calibrated model (morning/evening \
       drift), and a busy campus where ongoing calls supply tracking";
  let ok = ref true in
  List.iter
    (fun (name, build) ->
      let r = Cellsim.Sim.run (build ?seed:(Some 21212) ()) in
      Printf.printf "%s: %d calls, %d reports, %d skipped\n" name
        r.Cellsim.Sim.total_calls r.Cellsim.Sim.updates
        r.Cellsim.Sim.skipped_calls;
      let per_call s =
        float_of_int s.Cellsim.Sim.cells_paged
        /. float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls)
      in
      List.iter
        (fun s ->
          Printf.printf "  %-14s %8.2f cells/call\n"
            (Cellsim.Sim.scheme_to_string s.Cellsim.Sim.scheme)
            (per_call s))
        r.Cellsim.Sim.per_scheme;
      (* The clean-infrastructure claim: only check scenarios without a
         fault model (degraded-downtown's blanket escalation deliberately
         erases the gap — that regime is e22's subject). *)
      (if (build ?seed:(Some 21212) ()).Cellsim.Sim.faults = None then
         match r.Cellsim.Sim.per_scheme with
         | blanket :: selective :: _ ->
           if per_call selective >= per_call blanket then ok := false
         | _ -> ok := false);
      print_newline ())
    Cellsim.Scenario.all;
  record ~id:"e21" ~pass:!ok
    "selective paging beats blanket in every fault-free scenario, including \
     under model-mismatched commuter mobility"

(* ------------------------------------------------------------------ *)
(* E22: graceful degradation under imperfect detection (Section 5)     *)
(* ------------------------------------------------------------------ *)

let e22 () =
  header ~id:"e22" ~title:"degradation curve: response probability q falls"
    ~claim:
      "Section 5 drops the perfect-detection assumption: a paged device \
       answers only with probability q. Re-paging with escalation to \
       blanket keeps calls completing, at a paging cost that grows as q \
       falls; at q = 1 the fault layer is inert and reproduces the clean \
       simulator exactly";
  let faults_for q =
    Some
      {
        Cellsim.Faults.none with
        Cellsim.Faults.detect_q = q;
        retry = Cellsim.Faults.Escalate { after = 1; to_blanket = true };
      }
  in
  let run faults =
    Cellsim.Sim.run
      {
        (sim_config
           ~schemes:
             [ Cellsim.Sim.Blanket; Cellsim.Sim.Selective 3;
               Cellsim.Sim.Selective_diffuse 3 ]
           ~reporting:Cellsim.Reporting.Area ~call_duration:0.0 ~seed:22222 ())
        with
        Cellsim.Sim.faults;
      }
  in
  let per_call s =
    float_of_int s.Cellsim.Sim.cells_paged
    /. float_of_int (Stdlib.max 1 s.Cellsim.Sim.calls)
  in
  let clean = run None in
  let qs = [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.5 ] in
  Printf.printf "%6s  %-14s %12s %8s %8s %10s\n" "q" "scheme" "cells/call"
    "retries" "escal." "residual";
  let results_by_q =
    List.map
      (fun q ->
        let r = run (faults_for q) in
        List.iter
          (fun s ->
            let f = s.Cellsim.Sim.robustness in
            Printf.printf "%6.2f  %-14s %12.2f %8d %8d %10d\n" q
              (Cellsim.Sim.scheme_to_string s.Cellsim.Sim.scheme)
              (per_call s) f.Cellsim.Sim.retries f.Cellsim.Sim.escalations
              f.Cellsim.Sim.residual_misses)
          r.Cellsim.Sim.per_scheme;
        print_newline ();
        q, r)
      qs
  in
  let at q = List.assoc q results_by_q in
  (* q = 1 with a retry policy wired in must equal the clean run. *)
  let inert = at 1.0 = clean in
  (* Determinism of the faulty path, including all robustness counters. *)
  let repeatable = at 0.8 = run (faults_for 0.8) in
  (* Monotone cost: q = 0.5 pages strictly more than q = 1 per call, and
     retries actually fire once q < 1. *)
  let costlier =
    List.for_all2
      (fun s1 s05 -> per_call s05 > per_call s1)
      (at 1.0).Cellsim.Sim.per_scheme (at 0.5).Cellsim.Sim.per_scheme
  in
  let retried =
    List.for_all
      (fun s -> s.Cellsim.Sim.robustness.Cellsim.Sim.retries > 0)
      (at 0.9).Cellsim.Sim.per_scheme
  in
  record ~id:"e22" ~pass:(inert && repeatable && costlier && retried)
    (Printf.sprintf
       "q=1 inert: %b; q=0.8 repeatable: %b; q=0.5 costlier than q=1: %b; \
        retries fire for q<1: %b"
       inert repeatable costlier retried)

(* ------------------------------------------------------------------ *)
(* E23: deadline-budgeted runner and the resumable sweep journal        *)
(* ------------------------------------------------------------------ *)

let e23 () =
  header ~id:"e23" ~title:"deadline runner: fallback chain and resumable journal"
    ~claim:
      "exact solving is exponential (Theorem 3.8), so a budgeted runtime \
       must fall back to the e/(e-1) heuristic of Theorem 4.8 within its \
       deadline; a checkpointed sweep resumes without recomputing";
  let module Runner = Confcall.Runner in
  let module Journal = Confcall.Journal in
  let module Cancel = Confcall.Cancel in
  let module Solver = Confcall.Solver in
  (* Part 1: c = 60 is far beyond any exact method. Under a 50 ms budget
     the exact stage must time out and a heuristic must win in time. *)
  let rng = Prob.Rng.create ~seed:23 in
  let inst = Instance.random_uniform_simplex rng ~m:3 ~c:60 ~d:4 in
  let t0 = Obs.now () in
  let report = Runner.run ~budget_ms:50.0 inst in
  let wall_ms = (Obs.now () -. t0) *. 1000.0 in
  List.iter
    (fun (s : Runner.stage_report) ->
      Printf.printf "  %-14s %8.2f ms  %s\n"
        (Solver.spec_to_string s.Runner.spec)
        s.Runner.elapsed_ms
        (Runner.stage_status_to_string s.Runner.status))
    report.Runner.stages;
  let exact_timed_out =
    List.exists
      (fun (s : Runner.stage_report) ->
        s.Runner.spec = Solver.Best_exact
        && s.Runner.status = Runner.Failed Runner.Timeout)
      report.Runner.stages
  in
  let within_grace = wall_ms <= 50.0 +. 150.0 in
  let heuristic_won =
    match report.Runner.winner with
    | Some ((Solver.Greedy | Solver.Local_search), _) -> true
    | _ -> false
  in
  Printf.printf "wall: %.2f ms (budget 50 + grace)\n" wall_ms;
  (* Part 2: the same six-item sweep run three times over one journal:
     fresh (all ran), resumed (all skipped), and fresh-file control — the
     resumed journal must be byte-identical to the control. *)
  let sweep path seeds =
    let journal = Journal.load_or_create path in
    let ran = ref 0 and skipped = ref 0 in
    List.iter
      (fun seed ->
        let id = Printf.sprintf "e23/c16/seed%d" seed in
        let status, _ =
          Journal.run journal ~id (fun () ->
              let rng = Prob.Rng.create ~seed in
              let inst = Instance.random_uniform_simplex rng ~m:2 ~c:16 ~d:3 in
              let r = Runner.run inst in
              match r.Runner.winner with
              | Some (spec, o) ->
                Printf.sprintf "%s %.9f" (Solver.spec_to_string spec)
                  o.Solver.expected_paging
              | None -> "failed")
        in
        match status with `Ran -> incr ran | `Replayed -> incr skipped)
      seeds;
    Journal.close journal;
    (!ran, !skipped)
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let path = Filename.temp_file "confcall_e23" ".journal" in
  let control = Filename.temp_file "confcall_e23_control" ".journal" in
  (* interrupted run: only the first three items complete *)
  let r1 = sweep path [ 1; 2; 3 ] in
  (* resumed run over all six: three skips, three fresh *)
  let r2 = sweep path [ 1; 2; 3; 4; 5; 6 ] in
  (* third run: everything already journalled *)
  let r3 = sweep path [ 1; 2; 3; 4; 5; 6 ] in
  let rc = sweep control [ 1; 2; 3; 4; 5; 6 ] in
  let identical = read_file path = read_file control in
  Sys.remove path;
  Sys.remove control;
  Printf.printf
    "sweep: interrupted %d/%d, resumed %d/%d, replay %d/%d, control %d/%d, \
     byte-identical: %b\n"
    (fst r1) (snd r1) (fst r2) (snd r2) (fst r3) (snd r3) (fst rc) (snd rc)
    identical;
  record ~id:"e23"
    ~pass:
      (exact_timed_out && within_grace && heuristic_won
      && r1 = (3, 0)
      && r2 = (3, 3)
      && r3 = (0, 6)
      && rc = (6, 0)
      && identical)
    (Printf.sprintf
       "exact timed out: %b; finished in budget+grace: %b; heuristic won: \
        %b; resume skipped completed work and journal is byte-identical: %b"
       exact_timed_out within_grace heuristic_won identical)

(* ------------------------------------------------------------------ *)
(* E24: uncertainty ball — certified EP bounds, worst case, drift      *)
(* ------------------------------------------------------------------ *)

let e24 () =
  header ~id:"e24" ~title:"uncertainty ball: certified EP bounds, drift recovery"
    ~claim:
      "Lemma 2.1 extends to perturbed matrices: per-round prefix-mass \
       intervals certify EP over an L-inf ball around the estimate, a \
       canonical transport attains the worst case, and the simulator's \
       drift-triggered re-solve returns realized paging cost to the \
       re-solved nominal EP while a stale matrix stays miscalibrated";
  let module Solver = Confcall.Solver in
  (* Part 1: eps sweep on one instance and its greedy strategy. *)
  let rng = Prob.Rng.create ~seed:424 in
  let inst = Instance.random_uniform_simplex rng ~m:3 ~c:24 ~d:3 in
  let outcome = Solver.solve Solver.Greedy inst in
  let strat = outcome.Solver.strategy in
  let nominal = outcome.Solver.expected_paging in
  let epss = [ 0.0; 0.005; 0.01; 0.02; 0.05; 0.1 ] in
  Printf.printf "instance: m=3 c=24 d=3 (simplex, seed 424); greedy EP %.6f\n"
    nominal;
  Printf.printf "%8s %12s %12s %12s %12s\n" "eps" "lo" "nominal" "hi"
    "worst-case";
  let rows =
    List.map
      (fun eps ->
        let u = Confcall.Uncertainty.uniform eps in
        let b = Confcall.Uncertainty.ep_bounds u inst strat in
        let worst = Confcall.Uncertainty.robust_ep u inst strat in
        Printf.printf "%8.3f %12.6f %12.6f %12.6f %12.6f\n" eps
          b.Confcall.Uncertainty.lo nominal b.Confcall.Uncertainty.hi worst;
        (eps, b.Confcall.Uncertainty.lo, b.Confcall.Uncertainty.hi, worst))
      epss
  in
  let bracket =
    List.for_all
      (fun (_, lo, hi, worst) ->
        lo <= nominal +. 1e-9
        && nominal <= hi +. 1e-9
        && nominal <= worst +. 1e-9
        && worst <= hi +. 1e-9)
      rows
  in
  let rec pairwise ok = function
    | (_, lo1, hi1, w1) :: ((_, lo2, hi2, w2) :: _ as rest) ->
      pairwise
        (ok && lo2 <= lo1 +. 1e-9 && hi1 <= hi2 +. 1e-9 && w1 <= w2 +. 1e-9)
        rest
    | _ -> ok
  in
  let monotone = pairwise true rows in
  (* Part 2: drifting-commuter — realized cost vs the (re-)solved
     nominal EP over the recovered phase t in (280, 360], by
     differencing two cumulative runs (same seed => shared prefix). *)
  let cfg = Cellsim.Scenario.drifting_commuter () in
  let stale_cfg =
    {
      cfg with
      Cellsim.Sim.estimator =
        (match cfg.Cellsim.Sim.estimator with
         | Cellsim.Sim.Snapshot s -> Cellsim.Sim.Snapshot { s with drift = None }
         | e -> e);
    }
  in
  let recovered c =
    let run_to d = Cellsim.Sim.run { c with Cellsim.Sim.duration = d } in
    let a = run_to 280.0 and b = run_to 360.0 in
    let pick (r : Cellsim.Sim.result) =
      List.find
        (fun (s : Cellsim.Sim.scheme_metrics) ->
          match s.Cellsim.Sim.scheme with
          | Cellsim.Sim.Selective _ -> true
          | _ -> false)
        r.Cellsim.Sim.per_scheme
    in
    let sa = pick a and sb = pick b in
    let calls = sb.Cellsim.Sim.calls - sa.Cellsim.Sim.calls in
    let realized =
      float_of_int (sb.Cellsim.Sim.cells_paged - sa.Cellsim.Sim.cells_paged)
      /. float_of_int calls
    in
    let nominal =
      (sb.Cellsim.Sim.expected_paging -. sa.Cellsim.Sim.expected_paging)
      /. float_of_int calls
    in
    (realized, nominal, b.Cellsim.Sim.drift)
  in
  let drift_realized, drift_nominal, drift_metrics = recovered cfg in
  let stale_realized, stale_nominal, _ = recovered stale_cfg in
  let resolves =
    match drift_metrics with
    | Some d -> d.Cellsim.Sim.resolves
    | None -> 0
  in
  Printf.printf
    "\nrecovered phase (t in (280, 360], selective-d3, cells/call):\n";
  Printf.printf "  %-10s realized %7.2f  nominal %7.2f  (%d re-solves)\n"
    "drift-on" drift_realized drift_nominal resolves;
  Printf.printf "  %-10s realized %7.2f  nominal %7.2f\n" "stale"
    stale_realized stale_nominal;
  let recovered_ok = drift_realized <= 1.10 *. drift_nominal in
  let stale_degrades =
    stale_realized > 1.10 *. stale_nominal
    && stale_realized > 2.0 *. drift_realized
  in
  record ~id:"e24"
    ~pass:(bracket && monotone && resolves >= 1 && recovered_ok && stale_degrades)
    ~metrics:
      [
        "nominal_ep", J.Num nominal;
        ( "eps_sweep",
          J.Arr
            (List.map
               (fun (eps, lo, hi, worst) ->
                 J.Obj
                   [
                     ("eps", J.Num eps);
                     ("lo", J.Num lo);
                     ("hi", J.Num hi);
                     ("worst", J.Num worst);
                   ])
               rows) );
        "drift_realized", J.Num drift_realized;
        "drift_nominal", J.Num drift_nominal;
        "stale_realized", J.Num stale_realized;
        "stale_nominal", J.Num stale_nominal;
        "resolves", J.int resolves;
      ]
    (Printf.sprintf
       "bounds bracket nominal and worst case: %b; widen monotonically: %b; \
        drift re-solved %d times and realized/nominal = %.2f (<= 1.10); \
        stale realized/nominal = %.2f and %.1fx the drift-on realized cost"
       bracket monotone resolves
       (drift_realized /. drift_nominal)
       (stale_realized /. stale_nominal)
       (stale_realized /. drift_realized))

(* ------------------------------------------------------------------ *)
(* E25: multicore runtime — speedup curves, parallel ≡ sequential      *)
(* ------------------------------------------------------------------ *)

let e25 () =
  header ~id:"e25" ~title:"domain-pool runtime: speedup and determinism"
    ~claim:
      "chain re-ranking, parameter sweeps and simulation replication are \
       embarrassingly parallel candidate evaluation (the O(c(m+dc)) DP of \
       Fig. 1 per candidate); a domain pool accelerates all three without \
       changing a single result bit";
  let module Runner = Confcall.Runner in
  let module Journal = Confcall.Journal in
  let module Sweep = Confcall.Sweep in
  let module Solver = Confcall.Solver in
  let module Uncertainty = Confcall.Uncertainty in
  let degrees = [ 1; 2; 4 ] in
  let cores = Domain.recommended_domain_count () in
  let wall f =
    let t0 = Obs.now () in
    let r = f () in
    (r, (Obs.now () -. t0) *. 1000.0)
  in
  let with_degree domains f =
    if domains > 1 then Exec.Pool.with_pool ~domains (fun p -> f (Some p))
    else f None
  in
  (* Leg 1 — chain racing. Uncertainty re-ranking runs *every* stage
     (all candidates are scored), so the sequential cost is the sum of
     the stage times and the raced cost their max. *)
  let rng = Prob.Rng.create ~seed:2501 in
  let race_inst = Instance.random_uniform_simplex rng ~m:4 ~c:220 ~d:4 in
  let race_chain = Solver.[ Local_search; Greedy; Bandwidth_limited 80 ] in
  let u = Uncertainty.uniform 0.01 in
  let race domains =
    with_degree domains (fun pool ->
        Runner.run ~chain:race_chain ~uncertainty:u ?pool race_inst)
  in
  (* Leg 2 — sharded sweep: independent greedy solves journalled through
     [Sweep.run]; the merged journal must be byte-identical per degree. *)
  let sweep_items =
    List.init 12 (fun k ->
        let seed = 100 + k in
        {
          Sweep.id = Printf.sprintf "e25/c1600/seed%d" seed;
          compute =
            (fun () ->
              let rng = Prob.Rng.create ~seed in
              let inst =
                Instance.random_uniform_simplex rng ~m:3 ~c:1600 ~d:4
              in
              let o = Solver.solve Solver.Greedy inst in
              Printf.sprintf "%.9f" o.Solver.expected_paging);
        })
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let sweep domains =
    let path = Filename.temp_file "confcall_e25" ".journal" in
    Sys.remove path;
    let journal = Journal.load_or_create path in
    let outcomes =
      Fun.protect
        ~finally:(fun () -> Journal.close journal)
        (fun () ->
          with_degree domains (fun pool -> Sweep.run ?pool ~journal sweep_items))
    in
    let bytes = read_file path in
    Sys.remove path;
    (outcomes, bytes)
  in
  (* Leg 3 — simulation replicas: four independent seeded runs reduced
     deterministically. *)
  let sim_cfg =
    { (Cellsim.Sim.default_config ()) with Cellsim.Sim.duration = 150.0 }
  in
  let sim domains =
    with_degree domains (fun pool ->
        Cellsim.Replicate.run_summary ?pool ~replicas:4 sim_cfg)
  in
  let time_leg f = List.map (fun d -> (d, wall (fun () -> f d))) degrees in
  let race_runs = time_leg race in
  let sweep_runs = time_leg sweep in
  let sim_runs = time_leg sim in
  let walls runs = List.map (fun (d, (_, w)) -> (d, w)) runs in
  let speedup runs d =
    let w1 = List.assoc 1 (walls runs) and wd = List.assoc d (walls runs) in
    w1 /. wd
  in
  let print_leg name runs =
    List.iter
      (fun (d, (_, w)) ->
        Printf.printf "  %-7s domains=%d  %10.2f ms  speedup %.2fx\n" name d w
          (speedup runs d))
      runs
  in
  Printf.printf "cores available: %d%s\n" cores
    (if cores < 4 then "  (speedup gate waived below 4 cores)" else "");
  print_leg "race" race_runs;
  print_leg "sweep" sweep_runs;
  print_leg "sim" sim_runs;
  (* Determinism across degrees, against the degree-1 baseline. *)
  let base sel runs = sel (fst (snd (List.hd runs))) in
  let all_equal sel runs =
    let b = base sel runs in
    List.for_all (fun (_, (r, _)) -> sel r = b) runs
  in
  let winner_key (r : Runner.run_report) =
    match r.Runner.winner with
    | Some (spec, o) ->
      Some
        ( Solver.spec_to_string spec,
          o.Solver.expected_paging,
          Strategy.to_string o.Solver.strategy )
    | None -> None
  in
  let race_eq = all_equal winner_key race_runs in
  let sweep_eq =
    all_equal snd sweep_runs
    && all_equal
         (fun (outcomes, _) ->
           List.map (fun o -> (o.Sweep.id, o.Sweep.payload)) outcomes)
         sweep_runs
  in
  let sim_eq = all_equal Fun.id sim_runs in
  let sweep_s4 = speedup sweep_runs 4 in
  let speedup_ok = cores < 4 || sweep_s4 >= 2.0 in
  Printf.printf
    "parallel == sequential: race %b, sweep (journal bytes) %b, sim %b\n"
    race_eq sweep_eq sim_eq;
  let leg_json runs =
    J.Arr
      (List.map
         (fun (d, (_, w)) ->
           J.Obj
             [
               ("domains", J.int d);
               ("wall_ms", J.Num w);
               ("speedup", J.Num (speedup runs d));
             ])
         runs)
  in
  record ~id:"e25"
    ~pass:(race_eq && sweep_eq && sim_eq && speedup_ok)
    ~metrics:
      [
        "cores", J.int cores;
        "race", leg_json race_runs;
        "sweep", leg_json sweep_runs;
        "sim", leg_json sim_runs;
        "race_equal", J.Bool race_eq;
        "sweep_equal", J.Bool sweep_eq;
        "sim_equal", J.Bool sim_eq;
        "sweep_speedup_4", J.Num sweep_s4;
      ]
    (Printf.sprintf
       "results identical across 1/2/4 domains: race %b, sweep %b, sim %b; \
        sweep speedup at 4 domains %.2fx on %d cores%s"
       race_eq sweep_eq sim_eq sweep_s4 cores
       (if cores < 4 then " (gate waived: fewer than 4 cores)" else ""))

(* ------------------------------------------------------------------ *)
(* E26: observability — overhead and cross-domain counter equality     *)
(* ------------------------------------------------------------------ *)

let e26 () =
  header ~id:"e26" ~title:"observability: overhead and counter determinism"
    ~claim:
      "the metrics registry and span tracer instrument the e25 legs at \
       <= 5% wall-clock overhead, and every counter and histogram outside \
       the scheduler (pool_*) and wall-clock (*_ms) namespaces is \
       identical across 1 and 4 domains";
  let module Runner = Confcall.Runner in
  let module Journal = Confcall.Journal in
  let module Sweep = Confcall.Sweep in
  let module Solver = Confcall.Solver in
  let module Uncertainty = Confcall.Uncertainty in
  let registry = Obs.Metrics.default in
  let tracer = Obs.Trace.default in
  let with_degree domains f =
    if domains > 1 then Exec.Pool.with_pool ~domains (fun p -> f (Some p))
    else f None
  in
  (* The e25 legs, scaled down: an uncertainty re-ranked chain (every
     stage runs to completion, in sequential and raced mode alike, so
     the executed stage set is degree-independent), a journalled greedy
     sweep, and reduced simulation replicas. *)
  let rng = Prob.Rng.create ~seed:2601 in
  let race_inst = Instance.random_uniform_simplex rng ~m:4 ~c:160 ~d:4 in
  let race_chain = Solver.[ Local_search; Greedy; Bandwidth_limited 80 ] in
  let u = Uncertainty.uniform 0.01 in
  let race domains =
    with_degree domains (fun pool ->
        ignore (Runner.run ~chain:race_chain ~uncertainty:u ?pool race_inst))
  in
  let sweep_items =
    List.init 8 (fun k ->
        let seed = 2600 + k in
        {
          Sweep.id = Printf.sprintf "e26/c1000/seed%d" seed;
          compute =
            (fun () ->
              let rng = Prob.Rng.create ~seed in
              let inst =
                Instance.random_uniform_simplex rng ~m:3 ~c:1000 ~d:4
              in
              let o = Solver.solve Solver.Greedy inst in
              Printf.sprintf "%.9f" o.Solver.expected_paging);
        })
  in
  let sweep domains =
    let path = Filename.temp_file "confcall_e26" ".journal" in
    Sys.remove path;
    let journal = Journal.load_or_create path in
    Fun.protect
      ~finally:(fun () -> Journal.close journal)
      (fun () ->
        with_degree domains (fun pool ->
            ignore (Sweep.run ?pool ~journal sweep_items)));
    Sys.remove path
  in
  let sim_cfg =
    { (Cellsim.Sim.default_config ()) with Cellsim.Sim.duration = 80.0 }
  in
  let sim domains =
    with_degree domains (fun pool ->
        ignore (Cellsim.Replicate.run_summary ?pool ~replicas:3 sim_cfg))
  in
  let legs = [ ("race", race); ("sweep", sweep); ("sim", sim) ] in
  let set_obs enabled =
    Obs.Metrics.set_enabled registry enabled;
    Obs.Trace.set_enabled tracer enabled
  in
  let obs_reset () =
    Obs.Metrics.reset registry;
    Obs.Trace.reset tracer
  in
  (* Overhead: min-of-3 alternating disabled/enabled runs of each leg at
     degree 1 (the sequential path, whose bit-identity the no-op
     contract protects). The gate allows 5% plus a small absolute slack
     so sub-100ms legs are not judged on scheduler jitter. *)
  let wall f =
    let t0 = Obs.now () in
    f 1;
    (Obs.now () -. t0) *. 1000.0
  in
  let overhead (name, f) =
    f 1 (* warmup *);
    let dis = ref infinity and en = ref infinity in
    for _ = 1 to 3 do
      set_obs false;
      dis := Float.min !dis (wall f);
      set_obs true;
      en := Float.min !en (wall f);
      obs_reset ()
    done;
    set_obs false;
    obs_reset ();
    (name, !dis, !en)
  in
  let oh = List.map overhead legs in
  let overhead_ok =
    List.for_all (fun (_, dis, en) -> en <= (dis *. 1.05) +. 5.0) oh
  in
  List.iter
    (fun (name, dis, en) ->
      Printf.printf "  %-6s disabled %8.2f ms  enabled %8.2f ms  ratio %.3f\n"
        name dis en (en /. dis))
    oh;
  (* Counter equality: run all legs with metrics on at degree 1 and at
     degree 4 and compare everything deterministic — counters and
     histogram bucket counts outside pool_* (scheduler decisions) and
     *_ms (wall clock). Bucket counts, not float sums: summation order
     is scheduling-dependent, bucket membership of each observation is
     not. *)
  let keep name =
    not (String.length name >= 5 && String.sub name 0 5 = "pool_")
  in
  let is_ms name =
    let n = String.length name in
    n >= 3 && String.sub name (n - 3) 3 = "_ms"
  in
  let deterministic_snapshot () =
    ( List.filter (fun (n, _) -> keep n) (Obs.Metrics.counters registry),
      Obs.Metrics.histogram_buckets registry
      |> List.filter (fun (n, _) -> keep n && not (is_ms n))
      |> List.map (fun (n, cells) -> (n, Array.to_list cells)) )
  in
  let run_all domains =
    obs_reset ();
    Obs.Metrics.set_enabled registry true;
    List.iter (fun (_, f) -> f domains) legs;
    Obs.Metrics.set_enabled registry false;
    let snap = deterministic_snapshot () in
    obs_reset ();
    snap
  in
  let snap1 = run_all 1 in
  let snap4 = run_all 4 in
  let counters_equal = snap1 = snap4 in
  let n_counters = List.length (fst snap1)
  and n_hists = List.length (snd snap1) in
  Printf.printf
    "  deterministic set: %d counters, %d histograms — equal across 1/4 \
     domains: %b\n"
    n_counters n_hists counters_equal;
  record ~id:"e26"
    ~pass:(overhead_ok && counters_equal && n_counters > 0 && n_hists > 0)
    ~metrics:
      ([
         "counters_equal", J.Bool counters_equal;
         "overhead_ok", J.Bool overhead_ok;
         "deterministic_counters", J.int n_counters;
         "deterministic_histograms", J.int n_hists;
       ]
      @ List.concat_map
          (fun (name, dis, en) ->
            [
              "overhead_" ^ name, J.Num (en /. dis);
              "wall_disabled_" ^ name ^ "_ms", J.Num dis;
              "wall_enabled_" ^ name ^ "_ms", J.Num en;
            ])
          oh)
    (Printf.sprintf
       "instrumentation overhead %s (gate: <= 5%% + 5 ms slack per leg); %d \
        counters + %d histogram bucket sets identical across 1/4 domains: %b"
       (String.concat ", "
          (List.map
             (fun (name, dis, en) ->
               Printf.sprintf "%s %.3fx" name (en /. dis))
             oh))
       n_counters n_hists counters_equal)

(* ------------------------------------------------------------------ *)
(* Serve harness shared by E27-E29                                     *)
(* ------------------------------------------------------------------ *)

(* Every load in E27-E29 is the loadgen's diet: a pool of 32 Zipf
   3x12x2 instances, chain [default] under a 20 ms budget, cache off. *)
let serve_budget_ms = 20.0

let leg_opts ~rate ~requests ~seed =
  {
    Serve.Loadgen.default_opts with
    rate;
    requests;
    budget_ms = Some serve_budget_ms;
    solver = None;
    chain = Some "default";
    instances = 32;
    seed;
    timeout_s = 120.0;
  }

(* An in-process daemon on an ephemeral loopback port, and its target.
   A cache journal, when given, is fsynced. *)
let start_daemon ~id ?cache_path ~domains ~capacity () =
  let h =
    Serve.Server.start
      {
        (Serve.Server.default_config (Serve.Server.Tcp 0)) with
        domains;
        capacity;
        cache_path;
        cache_fsync = cache_path <> None;
        drain_grace_ms = 60_000.0;
        quiet = true;
      }
  in
  match Serve.Server.bound_port h with
  | Some p -> (h, Client.Tcp p)
  | None -> failwith (id ^ ": no bound port")

(* The nominal rate the legs are multiples of: what [targets] really
   serve, measured through the socket path the legs take, on their diet
   ([leg_opts]). [2 * lanes] callers share one client and each sends its
   next request the moment the last is answered, so the daemon's lanes
   and queue stay busy; the answered (ok or degraded) requests per
   second are counted over [calibration_windows] windows and the median
   is the rate. A measured rate already includes the host's CPU limit. *)
let calibration_windows = 5
let calibration_window_s = 0.4

let calibrate ~targets ~lanes =
  let o = leg_opts ~rate:0.0 ~requests:0 ~seed:2700 in
  let rng = Prob.Rng.create ~seed:o.seed in
  let pool =
    Array.init o.instances (fun _ ->
        Wire.Proto.solve_fields
          {
            instance =
              Instance.to_string
                (Instance.random_zipf rng ~s:1.1 ~m:o.m ~c:o.c ~d:o.d);
            solver = o.solver;
            chain = o.chain;
            budget_ms = o.budget_ms;
            objective = None;
            cache = o.cache;
            request_id = None;
          })
  in
  let cl =
    Client.create
      {
        (Client.default_config targets) with
        retry = { Client.Retry.default with max_retries = 0 };
      }
  in
  let next = Atomic.make 0 and answered = Atomic.make 0 in
  let stop = Atomic.make false in
  let caller () =
    while not (Atomic.get stop) do
      let i = Atomic.fetch_and_add next 1 mod Array.length pool in
      match Client.call cl pool.(i) with
      | Ok _ -> Atomic.incr answered
      | Error _ -> ()
    done
  in
  let callers = List.init (2 * lanes) (fun _ -> Thread.create caller ()) in
  let t = ref (Obs.now ()) in
  let rates =
    Array.init calibration_windows (fun _ ->
        Thread.delay calibration_window_s;
        let now = Obs.now () in
        let r = float_of_int (Atomic.exchange answered 0) /. (now -. !t) in
        t := now;
        r)
  in
  Atomic.set stop true;
  List.iter Thread.join callers;
  Client.close cl;
  let shown =
    String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") rates))
  in
  Array.sort Float.compare rates;
  let median = rates.(calibration_windows / 2) in
  Printf.printf
    "calibration: %d closed-loop callers over %d lanes, %d x %.1f s windows \
     (%s req/s) -> nominal %.0f req/s\n"
    (2 * lanes) lanes calibration_windows calibration_window_s shown median;
  median

(* One request on a raw frame connection: one write and one blocking
   read, with no client thread between the socket and the caller. *)
let ask_raw fd fields =
  Client.Transport.write_all fd
    (J.to_string (J.Obj (("id", J.Str "probe") :: fields)) ^ "\n");
  let line = ref None in
  (try
     Client.Transport.read_frames fd ~on_oversize:ignore (fun l ->
         line := Some l;
         raise Exit)
   with Exit -> ());
  Option.map Wire.Proto.decode_response !line

(* ------------------------------------------------------------------ *)
(* E27: paging-as-a-service — the daemon under 0.5x/1x/2x offered load *)
(* ------------------------------------------------------------------ *)

let e27 () =
  header ~id:"e27" ~title:"service overload: admission, shedding, degradation"
    ~claim:
      "the serve daemon under open-loop Poisson load at 0.5x/1x/2x of its \
       calibrated capacity answers every request with a terminal status, \
       sheds in well under 10 ms, and keeps accepted p99 latency within \
       the declared budget plus grace";
  (* Two lanes, or one when the host has fewer than three CPUs. The shed
     probe below claims that shedding happens at admission, and
     admission runs on the connection threads, which need a CPU the
     lanes leave free: with a lane on every CPU, each wake-up on the
     admission path waits behind the lanes' stop-the-world minor
     collections, and the probe times that instead. *)
  let domains = max 1 (min 2 (Domain.recommended_domain_count () - 1)) in
  let capacity = 16 in
  let budget_ms = serve_budget_ms in
  let h, target = start_daemon ~id:"e27" ~domains ~capacity () in
  let nominal = calibrate ~targets:[ target ] ~lanes:domains in
  print_newline ();
  let legs = [ 0.5; 1.0; 2.0 ] in
  Printf.printf "%6s %8s %6s %5s %5s %5s %4s %6s %9s %9s %9s %9s\n" "load"
    "rate/s" "sent" "ok" "degr" "shed" "err" "unansw" "p50ms" "p99ms"
    "p999ms" "shed p99";
  let results =
    List.map
      (fun mult ->
        let rate = nominal *. mult in
        let requests =
          int_of_float (Float.min 400.0 (Float.max 60.0 (rate *. 2.0)))
        in
        let s =
          Serve.Loadgen.run target (leg_opts ~rate ~requests ~seed:2702)
        in
        let p q = Serve.Loadgen.percentile s.Serve.Loadgen.accepted_ms q in
        let shed_p99 =
          Serve.Loadgen.percentile s.Serve.Loadgen.rejected_ms 99.0
        in
        Printf.printf
          "%5.1fx %8.0f %6d %5d %5d %5d %4d %6d %9.2f %9.2f %9.2f %9.2f\n"
          mult rate s.Serve.Loadgen.sent s.Serve.Loadgen.ok
          s.Serve.Loadgen.degraded s.Serve.Loadgen.rejected
          s.Serve.Loadgen.errors s.Serve.Loadgen.unanswered (p 50.0) (p 99.0)
          (p 99.9) shed_p99;
        (mult, s, p 50.0, p 99.0, p 99.9, shed_p99))
      legs
  in
  (* Controlled shed-latency probe. The open-loop legs above measure
     rejection RTT through a saturated client and kernel, which mostly
     measures scheduler noise; the property the design claims is that
     shedding happens at admission, never behind the queue. So: fill
     both lanes and the whole queue with slow budgeted solves on one
     connection, then time rejections on a second, otherwise idle
     connection while the queue is pinned full. *)
  let slow_inst =
    Instance.to_string
      (Instance.random_zipf (Prob.Rng.create ~seed:2701) ~s:1.1 ~m:3 ~c:18 ~d:3)
  in
  let slow_fields ~chain ~budget_ms =
    Wire.Proto.solve_fields
      { instance = slow_inst; solver = None; chain = Some chain;
        budget_ms = Some budget_ms; objective = None; cache = false;
        request_id = None }
  in
  let fill id =
    J.to_string
      (J.Obj
         (("id", J.Str id)
         :: slow_fields ~chain:"exhaustive" ~budget_ms:250.0))
    ^ "\n"
  in
  (* The prober is a raw frame connection: a probe's RTT is one write
     and one blocking read, bounded at 10 s by [SO_RCVTIMEO], with no
     client thread between the socket and the clock. It is opened, and
     warmed by an untimed health call, while the lanes are idle. *)
  let prober = Client.connect_endpoint target in
  Unix.setsockopt_float prober Unix.SO_RCVTIMEO 10.0;
  let ask = ask_raw prober in
  ignore (ask [ ("op", J.Str "health") ]);
  (* The fillers run [exhaustive], which burns its whole budget on a
     c = 18 instance, so the first [domains] jobs pin the lanes for
     250 ms; the rest sit in the queue (where the ladder will later
     downgrade them — irrelevant, they never start while the lanes are
     held). The queue is therefore pinned at capacity for the whole
     probe window. Their answers are never read. *)
  let filler = Client.connect_endpoint target in
  for i = 1 to domains + capacity + 4 do
    Client.Transport.write_all filler (fill (Printf.sprintf "fill%d" i))
  done;
  (* let the filler connection's thread admit the batch and the lanes
     dequeue their first jobs, then top the queue back up to capacity —
     otherwise depth sits at capacity - lanes and probes are admitted *)
  Unix.sleepf 0.05;
  for i = 1 to domains + 2 do
    Client.Transport.write_all filler (fill (Printf.sprintf "top%d" i))
  done;
  Unix.sleepf 0.02;
  (* A shed is a [rejected] answer; an error frame is answered but not
     shed; a silent connection is not answered. *)
  let probe_rtts = ref [] and probe_rejected = ref 0 in
  for _ = 1 to 10 do
    let t = Obs.now () in
    match ask (slow_fields ~chain:"default" ~budget_ms) with
    | None -> ()
    | Some r ->
      probe_rtts := ((Obs.now () -. t) *. 1000.0) :: !probe_rtts;
      (match r with
       | Ok { Wire.Proto.status = "rejected"; _ } -> incr probe_rejected
       | _ -> ())
  done;
  (try Unix.close prober with Unix.Unix_error _ -> ());
  (try Unix.close filler with Unix.Unix_error _ -> ());
  let probe_answered = List.length !probe_rtts in
  let probe_max_ms = List.fold_left Float.max 0.0 !probe_rtts in
  Printf.printf
    "\nshed probe at pinned-full queue: %d/10 answered, %d rejected, max \
     RTT %.3f ms\n"
    probe_answered !probe_rejected probe_max_ms;
  let drained = Serve.Server.stop h in
  print_newline ();
  (* Gates. Every request terminal at every load; a clean run (no error
     frames) at 0.5x; with the queue pinned full, probes are shed and
     every rejection lands in < 10 ms; accepted p99 stays within budget
     + runner grace + scheduling/queueing slack. Queue wait is bounded
     by the admission cap: capacity x mean service / lanes fits inside
     the slack. *)
  let slack_ms = 400.0 in
  let all_terminal =
    List.for_all (fun (_, s, _, _, _, _) -> s.Serve.Loadgen.unanswered = 0)
      results
  in
  let clean_at_half =
    List.for_all
      (fun (mult, s, _, _, _, _) ->
        mult > 0.5 || s.Serve.Loadgen.errors = 0)
      results
  in
  let shed_fast =
    probe_answered = 10 && !probe_rejected >= 8 && probe_max_ms < 10.0
  in
  let p99_bounded =
    List.for_all
      (fun (_, s, _, p99, _, _) ->
        Array.length s.Serve.Loadgen.accepted_ms = 0
        || p99 <= budget_ms +. 100.0 +. slack_ms)
      results
  in
  let leg_json (mult, s, p50, p99, p999, shed_p99) =
    J.Obj
      [
        ("load", J.Num mult);
        ("sent", J.int s.Serve.Loadgen.sent);
        ("ok", J.int s.Serve.Loadgen.ok);
        ("degraded", J.int s.Serve.Loadgen.degraded);
        ("rejected", J.int s.Serve.Loadgen.rejected);
        ("errors", J.int s.Serve.Loadgen.errors);
        ("unanswered", J.int s.Serve.Loadgen.unanswered);
        ("throughput", J.Num s.Serve.Loadgen.throughput);
        ("p50_ms", J.Num p50);
        ("p99_ms", J.Num p99);
        ("p999_ms", J.Num p999);
        ("shed_p99_ms", J.Num shed_p99);
        ( "ladder",
          J.Obj (List.map (fun (k, v) -> (k, J.int v)) s.Serve.Loadgen.ladder)
        );
      ]
  in
  record ~id:"e27"
    ~pass:(all_terminal && clean_at_half && shed_fast && p99_bounded && drained)
    ~metrics:
      [
        "nominal_rate", J.Num nominal;
        "budget_ms", J.Num budget_ms;
        "domains", J.int domains;
        "capacity", J.int capacity;
        "drained", J.Bool drained;
        "shed_probe_answered", J.int probe_answered;
        "shed_probe_rejected", J.int !probe_rejected;
        "shed_probe_max_ms", J.Num probe_max_ms;
        ("loads", J.Arr (List.map leg_json results));
      ]
    (Printf.sprintf
       "all terminal: %b; clean at 0.5x: %b; pinned-queue shed < 10 ms: %b \
        (%d/10 rejected, max %.2f ms); accepted p99 <= budget + grace + \
        %.0f ms: %b; drained: %b"
       all_terminal clean_at_half shed_fast !probe_rejected probe_max_ms
       slack_ms p99_bounded drained)

let e28 () =
  header ~id:"e28" ~title:"self-healing: recovery cost under injected faults"
    ~claim:
      "with worker-lane deaths, journal write/fsync faults and cache-store \
       faults injected, the serve daemon still answers every request with a \
       terminal status, respawns every crashed domain, drains clean, and \
       keeps accepted p99 within a bounded multiple of its own fault-free \
       baseline";
  let domains = 2 in
  let capacity = 16 in
  let requests_at rate =
    int_of_float (Float.min 400.0 (Float.max 80.0 (rate *. 2.0)))
  in
  (* One daemon per leg so the fault leg's respawn/chaos accounting is
     isolated; both see an identical fresh cache journal setup, and both
     start cold. A third daemon of the same shape is calibrated, faults
     off, before either leg; both legs run at 1.0x of that rate. *)
  let nominal =
    Faultpoint.disable ();
    let h, target = start_daemon ~id:"e28" ~domains ~capacity () in
    let n = calibrate ~targets:[ target ] ~lanes:domains in
    ignore (Serve.Server.stop h);
    n
  in
  let requests = requests_at nominal in
  Printf.printf "both legs at 1.0x (%d requests)\n\n" requests;
  let run_leg ~label ~chaos =
    (match chaos with
     | Some spec -> Faultpoint.configure_exn ~seed:1 spec
     | None -> Faultpoint.disable ());
    let cache_path = Filename.temp_file "confcall_e28" ".cache" in
    Sys.remove cache_path;
    let respawns0 = Exec.Pool.total_respawns () in
    let worker_crashes0 = Exec.Pool.total_worker_crashes () in
    let h, target = start_daemon ~id:"e28" ~cache_path ~domains ~capacity () in
    let s =
      Serve.Loadgen.run target (leg_opts ~rate:nominal ~requests ~seed:2802)
    in
    let drained = Serve.Server.stop h in
    let respawns = Exec.Pool.total_respawns () - respawns0 in
    let worker_crashes = Exec.Pool.total_worker_crashes () - worker_crashes0 in
    let fired = Faultpoint.fired_all () in
    Faultpoint.disable ();
    (try Sys.remove cache_path with Sys_error _ -> ());
    let p q = Serve.Loadgen.percentile s.Serve.Loadgen.accepted_ms q in
    Printf.printf
      "%-9s sent %4d  ok %4d  degr %3d  shed %3d  err %3d  unansw %3d  \
       p50 %8.2f ms  p99 %8.2f ms  respawns %d%s\n"
      label s.Serve.Loadgen.sent s.Serve.Loadgen.ok
      s.Serve.Loadgen.degraded s.Serve.Loadgen.rejected
      s.Serve.Loadgen.errors s.Serve.Loadgen.unanswered (p 50.0) (p 99.0)
      respawns
      (match fired with
       | [] -> ""
       | l ->
         "  fired "
         ^ String.concat " "
             (List.map (fun (pt, n) -> Printf.sprintf "%s=%d" pt n) l));
    (s, drained, p 99.0, respawns, worker_crashes, fired)
  in
  let base_s, base_drained, p99_base, _, _, _ =
    run_leg ~label:"baseline" ~chaos:None
  in
  (* Lane deaths dominate the spec; journal/cache faults ride along.
     The daemon survives any number of lane deaths (each re-queues its
     untouched job on a respawned domain), so the probabilities only
     keep respawn cost a small share of a nominal-load leg: the p99
     gate measures degradation under faults, not a respawn storm. *)
  let spec =
    "serve.lane.crash=0.03,journal.fsync=0.1,journal.append.short=0.05,\
     cache.store=0.05,pool.task.delay=0.02@5"
  in
  let fault_s, fault_drained, p99_fault, respawns, spawned_lane_crashes, fired
      =
    run_leg ~label:"faulted" ~chaos:(Some spec)
  in
  print_newline ();
  (* Gates. Terminal responses and a clean drain on both legs; lane
     crashes on spawned domains were healed by respawns (every daemon
     lane is a spawned domain); accepted p99
     under fault within max(5x, +200 ms) of the leg-local fault-free
     baseline (the floor absorbs sub-millisecond baselines where a
     multiple is noise). *)
  let all_terminal =
    base_s.Serve.Loadgen.unanswered = 0
    && fault_s.Serve.Loadgen.unanswered = 0
  in
  let lane_crashes =
    match List.assoc_opt "serve.lane.crash" fired with
    | Some n -> n
    | None -> 0
  in
  let healed = spawned_lane_crashes = 0 || respawns >= 1 in
  let p99_gate = Float.max (5.0 *. p99_base) (p99_base +. 200.0) in
  let p99_bounded =
    Array.length fault_s.Serve.Loadgen.accepted_ms = 0
    || p99_fault <= p99_gate
  in
  record ~id:"e28"
    ~pass:
      (all_terminal && base_drained && fault_drained && healed && p99_bounded)
    ~metrics:
      [
        "nominal_rate", J.Num nominal;
        "requests", J.int requests;
        "p99_base_ms", J.Num p99_base;
        "p99_fault_ms", J.Num p99_fault;
        "p99_gate_ms", J.Num p99_gate;
        "lane_crashes", J.int lane_crashes;
        "spawned_lane_crashes", J.int spawned_lane_crashes;
        "respawns", J.int respawns;
        ("faults_fired", J.Obj (List.map (fun (pt, n) -> (pt, J.int n)) fired));
        "unanswered_base", J.int base_s.Serve.Loadgen.unanswered;
        "unanswered_fault", J.int fault_s.Serve.Loadgen.unanswered;
        "drained_base", J.Bool base_drained;
        "drained_fault", J.Bool fault_drained;
      ]
    (Printf.sprintf
       "all terminal: %b; drained: %b/%b; lane crashes %d (%d on spawned \
        lanes) healed by %d respawns: %b; fault p99 %.2f ms within gate \
        %.2f ms (baseline %.2f ms): %b"
       all_terminal base_drained fault_drained lane_crashes
       spawned_lane_crashes respawns healed
       p99_fault p99_gate p99_base p99_bounded)

(* ------------------------------------------------------------------ *)
(* E29: replica failover — kill one of two daemons under resilient load *)
(* ------------------------------------------------------------------ *)

let e29 () =
  header ~id:"e29" ~title:"resilient client: replica loss under load"
    ~claim:
      "a retrying, failover-capable client driving two serve replicas \
       brings >= 99% of requests to a terminal answer even when one \
       replica is SIGKILLed mid-run, never makes a replica execute the \
       same request_id twice (per-replica request-log audit), and keeps \
       the failover leg's accepted p99 within +500 ms of the \
       two-replica baseline";
  let module Journal = Confcall.Journal in
  let domains = 2 in
  let capacity = 16 in
  let budget_ms = serve_budget_ms in
  (* Real processes this time: SIGKILL on an in-process server is not a
     thing, so each replica is the actual CLI daemon as a subprocess. *)
  let cli =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/confcall_cli.exe"
  in
  if not (Sys.file_exists cli) then
    failwith ("e29: daemon binary not built: " ^ cli ^ " (run dune build)");
  let spawn ~sock ~reqlog =
    (try Sys.remove sock with Sys_error _ -> ());
    (try Sys.remove reqlog with Sys_error _ -> ());
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process cli
        [|
          cli; "serve"; "--socket"; sock;
          "--domains"; string_of_int domains;
          "--capacity"; string_of_int capacity;
          "--request-log"; reqlog; "--quiet";
        |]
        null null null
    in
    Unix.close null;
    pid
  in
  let wait_ready sock =
    let deadline = Obs.now () +. 10.0 in
    let rec go () =
      match Client.connect_endpoint (Client.Unix_path sock) with
      | fd -> Unix.close fd
      | exception Unix.Unix_error _ when Obs.now () < deadline ->
        Thread.delay 0.05;
        go ()
      | exception Unix.Unix_error _ ->
        failwith ("e29: daemon not ready: " ^ sock)
    in
    go ()
  in
  let reap pid =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Obs.now () +. 15.0 in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Obs.now () >= deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Thread.delay 0.05;
          go ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    go ()
  in
  (* The audit: [Journal.read_back] raises on a duplicate id, and a
     duplicate id in a replica's request log IS a duplicate execution —
     the very thing idempotency promises away. Re-execution on the
     OTHER replica after a failover is legitimate (at-most-once is per
     replica) and shows up as the same id across the two logs. *)
  let audit reqlog =
    match Journal.read_back reqlog with
    | entries -> (List.length entries, false)
    | exception Invalid_argument _ -> (0, true)
  in
  (* A fresh pair of replicas for [f targets pid_a], reaped afterwards;
     returns [f]'s result and each replica's request-log audit. *)
  let with_pair f =
    let sock_a = Filename.temp_file "confcall_e29a" ".sock" in
    let sock_b = Filename.temp_file "confcall_e29b" ".sock" in
    let log_a = Filename.temp_file "confcall_e29a" ".reqlog" in
    let log_b = Filename.temp_file "confcall_e29b" ".reqlog" in
    let pid_a = spawn ~sock:sock_a ~reqlog:log_a in
    let pid_b = spawn ~sock:sock_b ~reqlog:log_b in
    wait_ready sock_a;
    wait_ready sock_b;
    let r = f [ Client.Unix_path sock_a; Client.Unix_path sock_b ] pid_a in
    reap pid_a;
    reap pid_b;
    let audits = (audit log_a, audit log_b) in
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ sock_a; sock_b; log_a; log_b ];
    (r, audits)
  in
  (* Nominal is what a pair of replicas serves together, measured on a
     pair of its own; the legs run at 0.6x of it, so the survivor of
     the kill leg lands at ~1.2x of its own capacity: stressed into
     admission control, not collapsed. *)
  let nominal, _ =
    with_pair (fun targets _ -> calibrate ~targets ~lanes:(2 * domains))
  in
  let rate = 0.6 *. nominal in
  let requests =
    int_of_float (Float.min 400.0 (Float.max 100.0 (rate *. 2.5)))
  in
  let expected_s = float_of_int requests /. rate in
  Printf.printf "legs at 0.6x (%.0f req/s, %d requests, ~%.1f s)\n\n" rate
    requests expected_s;
  (* The kill leg SIGKILLs replica A from its own progress, not from a
     timer: a prober asks A's [health] on a raw frame connection (as
     e27's does) every 2 ms, and kills A once it has completed an eighth
     of the leg's requests and holds at least one admitted job. A timer
     can fire after a short leg has ended, with nothing left to fail
     over. The prober stops when the leg ends or A stops answering. *)
  let kill_on_progress target pid_a ~leg_done =
    let fd = Client.connect_endpoint target in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    let stat name r =
      Option.value ~default:0
        (Option.bind (J.member name r.Wire.Proto.json) J.to_int)
    in
    let rec poll () =
      if not (Atomic.get leg_done) then
        match ask_raw fd [ ("op", J.Str "health") ] with
        | Some (Ok r)
          when stat "dedup_completed" r >= requests / 8
               && stat "inflight" r >= 1 ->
          (try Unix.kill pid_a Sys.sigkill with Unix.Unix_error _ -> ())
        | Some (Ok _) ->
          Thread.delay 0.002;
          poll ()
        | Some (Error _) | None -> ()
        | exception Unix.Unix_error _ -> ()
    in
    poll ();
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let run_leg ~label ~kill ~hedge =
    let s, ((exec_a, dup_a), (exec_b, dup_b)) =
      with_pair (fun targets pid_a ->
          let leg_done = Atomic.make false in
          let killer =
            if kill then
              Some
                (Thread.create
                   (fun () ->
                     kill_on_progress (List.hd targets) pid_a ~leg_done)
                   ())
            else None
          in
          let s =
            Serve.Loadgen.run_multi targets
              {
                (leg_opts ~rate ~requests ~seed:2902) with
                retries = 3;
                hedge_after_ms = hedge;
              }
          in
          Atomic.set leg_done true;
          Option.iter Thread.join killer;
          s)
    in
    let p q = Serve.Loadgen.percentile s.Serve.Loadgen.accepted_ms q in
    let terminal = s.Serve.Loadgen.sent - s.Serve.Loadgen.unanswered in
    Printf.printf
      "%-9s sent %4d  term %4d  ok %4d  degr %3d  err %3d  retr %3d  \
       failover %3d  hedgewin %3d  p50 %8.2f ms  p99 %8.2f ms  exec \
       %d+%d%s\n"
      label s.Serve.Loadgen.sent terminal s.Serve.Loadgen.ok
      s.Serve.Loadgen.degraded s.Serve.Loadgen.errors
      s.Serve.Loadgen.retried s.Serve.Loadgen.failed_over
      s.Serve.Loadgen.hedge_wins (p 50.0) (p 99.0) exec_a exec_b
      (if dup_a || dup_b then "  DUPLICATE EXECUTION" else "");
    (s, terminal, p 99.0, exec_a + exec_b, dup_a || dup_b)
  in
  let base_s, base_term, p99_base, _, base_dup =
    run_leg ~label:"baseline" ~kill:false ~hedge:None
  in
  let kill_s, kill_term, p99_kill, _, kill_dup =
    run_leg ~label:"killed" ~kill:true ~hedge:None
  in
  let hedge_s, hedge_term, p99_hedge, _, hedge_dup =
    run_leg ~label:"hedged" ~kill:false
      ~hedge:(Some (budget_ms *. 2.0))
  in
  print_newline ();
  let rate_of term s =
    if s.Serve.Loadgen.sent = 0 then 0.0
    else float_of_int term /. float_of_int s.Serve.Loadgen.sent
  in
  let base_rate = rate_of base_term base_s in
  let kill_rate = rate_of kill_term kill_s in
  let hedge_rate = rate_of hedge_term hedge_s in
  let terminal_ok =
    base_rate >= 0.99 && kill_rate >= 0.99 && hedge_rate >= 0.99
  in
  let no_dups = (not base_dup) && (not kill_dup) && not hedge_dup in
  (* The kill must actually have exercised the resilience machinery:
     some request retried or changed replica. *)
  let failover_seen =
    kill_s.Serve.Loadgen.failed_over >= 1 || kill_s.Serve.Loadgen.retried >= 1
  in
  let p99_gate = p99_base +. 500.0 in
  let p99_bounded =
    Array.length kill_s.Serve.Loadgen.accepted_ms = 0 || p99_kill <= p99_gate
  in
  record ~id:"e29"
    ~pass:(terminal_ok && no_dups && failover_seen && p99_bounded)
    ~metrics:
      [
        "pair_nominal_rate", J.Num nominal;
        "rate", J.Num rate;
        "requests", J.int requests;
        "terminal_rate_base", J.Num base_rate;
        "terminal_rate_kill", J.Num kill_rate;
        "terminal_rate_hedge", J.Num hedge_rate;
        "p99_base_ms", J.Num p99_base;
        "p99_kill_ms", J.Num p99_kill;
        "p99_hedge_ms", J.Num p99_hedge;
        "p99_gate_ms", J.Num p99_gate;
        "kill_retried", J.int kill_s.Serve.Loadgen.retried;
        "kill_failed_over", J.int kill_s.Serve.Loadgen.failed_over;
        "hedge_wins", J.int hedge_s.Serve.Loadgen.hedge_wins;
        "duplicate_executions", J.int (if no_dups then 0 else 1);
      ]
    (Printf.sprintf
       "terminal >= 99%%: %b (%.3f/%.3f/%.3f); duplicate executions: %s; \
        kill leg exercised failover: %b (retried %d, failed over %d); \
        kill p99 %.2f ms within baseline %.2f + 500 ms: %b"
       terminal_ok base_rate kill_rate hedge_rate
       (if no_dups then "none" else "FOUND")
       failover_seen kill_s.Serve.Loadgen.retried
       kill_s.Serve.Loadgen.failed_over p99_kill p99_base p99_bounded)

(* ------------------------------------------------------------------ *)
(* E30: flat hot path — allocation-free metro-scale coarse solving     *)
(* ------------------------------------------------------------------ *)

let e30 () =
  header ~id:"e30" ~title:"flat hot path: allocation-free metro-scale solving"
    ~claim:
      "the flat arena solves a metropolitan instance (m = 1000 devices, \
       c = 100000 cells, d = 8, coarse block 256) in well under 100 ms \
       per steady-state solve with zero minor-heap words allocated, \
       bit-identical to the legacy coarse DP on the same order; the \
       small-instance flat mirrors (greedy, within-order, hill climb) \
       are bit-identical to their legacy solvers too";
  let module Flat = Confcall.Flat in
  let module Local_search = Confcall.Local_search in
  (* --- small/mid differential leg: flat mirrors vs legacy, bitwise --- *)
  let rng = Prob.Rng.create ~seed:0xE30 in
  let small_equal = ref true in
  let arena = Flat.create () in
  for trial = 1 to 30 do
    let m = 1 + Prob.Rng.int rng 6 in
    let c = 2 + Prob.Rng.int rng 40 in
    let d = 1 + Prob.Rng.int rng (min c 8) in
    let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
    let objective =
      match trial mod 3 with
      | 0 -> Objective.Find_all
      | 1 -> Objective.Find_any
      | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)
    in
    let gl =
      Order_dp.solve ~objective inst ~order:(Instance.weight_order inst)
    in
    let gf = Flat.greedy ~objective arena inst in
    if
      gl.Order_dp.expected_paging <> gf.Order_dp.expected_paging
      || not (Strategy.equal gl.Order_dp.strategy gf.Order_dp.strategy)
    then small_equal := false;
    let hl = Local_search.hill_climb ~objective inst in
    let hf = Flat.hill_climb ~objective arena inst in
    if
      hl.Local_search.expected_paging <> hf.Local_search.expected_paging
      || hl.Local_search.iterations <> hf.Local_search.iterations
    then small_equal := false
  done;
  Printf.printf
    "small/mid differential (30 instances): flat == legacy bitwise: %b\n"
    !small_equal;
  (* --- metro leg --- *)
  let m = 1000 and c = 100_000 and d = 8 and block = 256 in
  Printf.printf "building metro instance m=%d c=%d d=%d...\n%!" m c d;
  let rows =
    Array.init m (fun _ -> Prob.Dist.shuffled rng (Prob.Dist.zipf ~s:1.2 c))
  in
  let inst = Instance.create ~d rows in
  let t0 = Obs.now () in
  Flat.prepare ~block arena inst;
  let prepare_ms = (Obs.now () -. t0) *. 1000.0 in
  (* steady state: repeated solves on the prepared arena *)
  let solves = 20 in
  Flat.run_greedy arena;
  let flat_ep = Flat.ep arena in
  let words_before = Gc.minor_words () in
  let t1 = Obs.now () in
  for _ = 1 to solves do
    Flat.run_greedy arena
  done;
  let steady_ms = (Obs.now () -. t1) *. 1000.0 /. float_of_int solves in
  let minor_words =
    int_of_float ((Gc.minor_words () -. words_before) /. float_of_int solves)
  in
  (* legacy oracle on the same order (the legacy weight-order comparator
     recomputes cell weights per comparison — quadratic in m·c·log c —
     so the oracle gets the arena's already-sorted order) *)
  let order = Flat.current_order arena in
  let t2 = Obs.now () in
  let legacy = Order_dp.solve_coarse ~block inst ~order in
  let legacy_ms = (Obs.now () -. t2) *. 1000.0 in
  let equal =
    legacy.Order_dp.expected_paging = flat_ep
    && Strategy.equal legacy.Order_dp.strategy
         (Flat.greedy ~block arena inst).Order_dp.strategy
  in
  let cells_per_sec =
    float_of_int (m * c) /. ((prepare_ms +. steady_ms) /. 1000.0)
  in
  Printf.printf
    "metro: prepare %.0f ms (one-time), steady %.3f ms/solve, %d minor \
     words/solve, legacy %.0f ms, EP %.6f, flat == legacy: %b\n"
    prepare_ms steady_ms minor_words legacy_ms flat_ep equal;
  let solve_fast = steady_ms < 100.0 in
  record ~id:"e30"
    ~pass:(!small_equal && solve_fast && minor_words = 0 && equal)
    ~metrics:
      [
        "cells_per_sec", J.Num cells_per_sec;
        "minor_words_per_solve", J.int minor_words;
        "metro_solve_ms", J.Num steady_ms;
        "prepare_ms", J.Num prepare_ms;
        "legacy_solve_ms", J.Num legacy_ms;
        "metro_ep", J.Num flat_ep;
        "flat_equal_legacy", J.Bool equal;
        "small_diff_equal", J.Bool !small_equal;
      ]
    (Printf.sprintf
       "metro solve %.3f ms < 100 ms: %b; minor words/solve = %d (want 0); \
        flat == legacy on metro: %b; small differential bitwise: %b"
       steady_ms solve_fast minor_words equal !small_equal)

(* ------------------------------------------------------------------ *)
(* E31: profile age vs realized EP across residence-time variance      *)
(* ------------------------------------------------------------------ *)

let e31 () =
  header ~id:"e31" ~title:"residence-time aging: realized EP vs profile age"
    ~claim:
      "sequential-paging gains hinge on residence-time variance: at a \
       matched mean dwell, heavy-tailed (Pareto) residence churns more \
       at moderate profile ages than exponential, so even correctly \
       aged location distributions are flatter and the best achievable \
       paging cost degrades faster; aging the rows and inflating the \
       uncertainty ball mitigate the age-blind gap, and age-triggered \
       re-profiling recovers the fresh-profile cost";
  let module Sim = Cellsim.Sim in
  let module Mobility = Cellsim.Mobility in
  let laws =
    [
      "exp", Mobility.Exponential { mean = 6.0 };
      "pareto", Cellsim.Scenario.pareto_dwell;
    ]
  in
  let seeds = [ 2002; 2003; 2004 ] in
  let ks = [ 1; 4; 8; 16 ] in
  let mk ~law ~report_every ~reprofile ~seed =
    let base = Cellsim.Scenario.residence_lab ~seed ~residence:law () in
    {
      base with
      Sim.reporting = Cellsim.Reporting.Time report_every;
      aging =
        Option.map
          (fun a -> { a with Sim.reprofile_age = reprofile })
          base.Sim.aging;
    }
  in
  (* Realized paging cost (ground-truth cells/call) and the planner's
     nominal EP/call for one scheme of one run. *)
  let per_call (r : Sim.result) scheme =
    let s =
      List.find (fun s -> s.Sim.scheme = scheme) r.Sim.per_scheme
    in
    let calls = float_of_int (max 1 s.Sim.calls) in
    ( float_of_int s.Sim.cells_paged /. calls,
      s.Sim.expected_paging /. calls )
  in
  (* Seed-averaged realized cells/call per scheme, plus polls. *)
  let measure ~law ~report_every ~reprofile =
    let n = float_of_int (List.length seeds) in
    let acc = Hashtbl.create 8 in
    let polls = ref 0 in
    List.iter
      (fun seed ->
        let r = Sim.run (mk ~law ~report_every ~reprofile ~seed) in
        polls := !polls + r.Sim.polls;
        List.iter
          (fun s ->
            let realized, nominal = per_call r s.Sim.scheme in
            let r0, n0 =
              Option.value
                (Hashtbl.find_opt acc s.Sim.scheme)
                ~default:(0.0, 0.0)
            in
            Hashtbl.replace acc s.Sim.scheme
              (r0 +. (realized /. n), n0 +. (nominal /. n)))
          r.Sim.per_scheme)
      seeds;
    (acc, !polls)
  in
  let sel = Sim.Selective 3
  and aged = Sim.Selective_aged 3
  and robust = Sim.Selective_robust 3
  and blanket = Sim.Blanket in
  let realized acc s = fst (Hashtbl.find acc s) in
  let nominal acc s = snd (Hashtbl.find acc s) in
  Printf.printf
    "%-7s %3s | %9s %9s %9s %9s | %9s\n" "law" "k" "blanket" "stale"
    "aged" "robust" "aged-nom";
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, law) ->
      List.iter
        (fun k ->
          let acc, _ = measure ~law ~report_every:k ~reprofile:None in
          Hashtbl.replace table (name, k) acc;
          Printf.printf
            "%-7s %3d | %9.2f %9.2f %9.2f %9.2f | %9.2f\n" name k
            (realized acc blanket) (realized acc sel) (realized acc aged)
            (realized acc robust) (nominal acc aged))
        ks)
    laws;
  let at name k = Hashtbl.find table (name, k) in
  (* Fresh-profile reference: everyone reports every tick, so ages are
     all zero and every selective variant coincides. *)
  let fresh name = realized (at name 1) sel in
  let deg name k = realized (at name k) sel /. fresh name in
  Printf.printf "\nstale-selective degradation vs fresh (cells/call ratio):\n";
  List.iter
    (fun (name, _) ->
      List.iter
        (fun k -> Printf.printf "  %s k=%d: %.3f\n" name k (deg name k))
        (List.tl ks))
    laws;
  (* Re-profiling leg: at the most stale setting, poll any participant
     not sighted this very tick before planning, so the planner works
     from exact knowledge — the "query on demand" end of the
     reporting/paging trade-off. *)
  let kmax = List.fold_left max 1 ks in
  Printf.printf "\nre-profiling leg (k=%d, reprofile-age 0):\n" kmax;
  let recover =
    List.map
      (fun (name, law) ->
        let acc, polls =
          measure ~law ~report_every:kmax ~reprofile:(Some 0)
        in
        let rec_sel = realized acc sel in
        Printf.printf
          "  %s: stale %.2f -> reprofiled %.2f (fresh %.2f), %d polls\n"
          name
          (realized (at name kmax) sel)
          rec_sel (fresh name) polls;
        (name, rec_sel, polls))
      laws
  in
  (* --- gates --- *)
  (* 1. Staleness hurts: the age-blind scheme's realized cost rises
     monotonically in the reporting interval, for both laws. *)
  let monotone name =
    let rec go = function
      | a :: (b :: _ as rest) ->
        realized (at name a) sel <= realized (at name b) sel && go rest
      | _ -> true
    in
    go ks
  in
  let degrades =
    List.for_all (fun (name, _) -> monotone name) laws
    && List.for_all (fun (name, _) -> deg name kmax > 1.5) laws
  in
  (* 2. Variance matters. The age-blind scheme's realized cost is
     dominated by uncertainty-set growth (identical across laws), and
     the heavy tail's long dwells even flatter the stale profile less
     — so the variance penalty is read off the *age-aware* cost: with
     correctly aged rows, both the realized cells/call (summed over
     the stale settings) and the planner's nominal EP at every stale
     setting are strictly worse under Pareto than under the
     exponential law at the same mean dwell. The sequential-paging
     advantage that remains once staleness is modelled honestly is
     what the heavy tail erodes. *)
  let stale_ks = List.tl ks in
  let aged_sum name =
    List.fold_left (fun s k -> s +. realized (at name k) aged) 0.0 stale_ks
  in
  let exp_aged_sum = aged_sum "exp" and pareto_aged_sum = aged_sum "pareto" in
  let pareto_faster =
    pareto_aged_sum > exp_aged_sum
    && List.for_all
         (fun k -> nominal (at "pareto" k) aged > nominal (at "exp" k) aged)
         stale_ks
  in
  (* 3. Mitigation: on the stalest setting, aged rows and the
     staleness-inflated robust re-rank both beat the age-blind
     scheme, under both laws. *)
  let mitigates =
    List.for_all
      (fun (name, _) ->
        let acc = at name kmax in
        realized acc aged <= realized acc sel
        && realized acc robust <= realized acc sel)
      laws
  in
  (* 4. Recovery: age-triggered re-profiling brings realized cost back
     to within 10% of the fresh-profile cost. *)
  let recovers =
    List.for_all
      (fun (name, r, polls) -> r <= 1.10 *. fresh name && polls > 0)
      recover
  in
  let exp_fresh = fresh "exp" and pareto_fresh = fresh "pareto" in
  let rec_exp =
    match recover with (_, r, _) :: _ -> r | [] -> nan
  in
  let rec_pareto =
    match recover with _ :: (_, r, _) :: _ -> r | _ -> nan
  in
  record ~id:"e31"
    ~pass:(degrades && pareto_faster && mitigates && recovers)
    ~metrics:
      [
        "exp_fresh", J.Num exp_fresh;
        "pareto_fresh", J.Num pareto_fresh;
        "exp_aged_sum", J.Num exp_aged_sum;
        "pareto_aged_sum", J.Num pareto_aged_sum;
        "exp_aged_nom_max", J.Num (nominal (at "exp" kmax) aged);
        "pareto_aged_nom_max", J.Num (nominal (at "pareto" kmax) aged);
        "exp_deg_max", J.Num (deg "exp" kmax);
        "pareto_deg_max", J.Num (deg "pareto" kmax);
        "exp_stale_max", J.Num (realized (at "exp" kmax) sel);
        "exp_aged_max", J.Num (realized (at "exp" kmax) aged);
        "exp_robust_max", J.Num (realized (at "exp" kmax) robust);
        "pareto_stale_max", J.Num (realized (at "pareto" kmax) sel);
        "pareto_aged_max", J.Num (realized (at "pareto" kmax) aged);
        "pareto_robust_max", J.Num (realized (at "pareto" kmax) robust);
        "exp_reprofiled", J.Num rec_exp;
        "pareto_reprofiled", J.Num rec_pareto;
        "degrades", J.Bool degrades;
        "pareto_faster", J.Bool pareto_faster;
        "mitigates", J.Bool mitigates;
        "recovers", J.Bool recovers;
      ]
    (Printf.sprintf
       "staleness degrades realized cost monotonically: %b; heavy tail \
        degrades the age-aware cost faster (aged cells/call summed over \
        stale settings: pareto %.2f vs exp %.2f; nominal EP worse at \
        every stale k): %b; aged rows and inflated ball mitigate at \
        k=%d: %b; re-profiling recovers to within 10%% of fresh: %b"
       degrades pareto_aged_sum exp_aged_sum pareto_faster kmax mitigates
       recovers)

let experiments =
  [
    "e1", e1;
    "e2", e2;
    "e3", e3;
    "e4", e4;
    "e5", e5;
    "e6", e6;
    "e7", e7;
    "e8", e8;
    "e9", e9;
    "e10", e10;
    "e11", e11;
    "e12", e12;
    "e13", e13;
    "e14", e14;
    "e15", e15;
    "e16", e16;
    "e17", e17;
    "e18", e18;
    "e19", e19;
    "e20", e20;
    "e21", e21;
    "e22", e22;
    "e23", e23;
    "e24", e24;
    "e25", e25;
    "e26", e26;
    "e27", e27;
    "e28", e28;
    "e29", e29;
    "e30", e30;
    "e31", e31;
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip_json_out acc = function
    | "--json-out" :: dir :: rest ->
      json_out := Some dir;
      strip_json_out acc rest
    | "--json-out" :: [] ->
      prerr_endline "--json-out requires a directory argument";
      exit 1
    | a :: rest -> strip_json_out (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_json_out [] args in
  (* The output directory is created up front (parents included) and an
     unusable path is reported as one line + exit 2 before any
     experiment runs — not as a raw [Sys_error] after a long run. *)
  let rec mkdir_p dir =
    if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
    else begin
      mkdir_p (Filename.dirname dir);
      try Sys.mkdir dir 0o755
      with Sys_error _ when Sys.file_exists dir -> ()
    end
  in
  (match !json_out with
   | Some dir ->
     (try
        mkdir_p dir;
        if not (Sys.is_directory dir) then
          failwith (dir ^ ": exists and is not a directory")
      with Sys_error msg | Failure msg ->
        Printf.eprintf "bench: error: --json-out %s\n" msg;
        exit 2)
   | None -> ());
  let no_bechamel = List.mem "--no-bechamel" args in
  let selected =
    List.filter (fun a -> a <> "--no-bechamel") args
    |> List.map String.lowercase_ascii
  in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (id, _) -> List.mem id selected) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "unknown experiment; available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  print_endline
    "Conference-call paging under delay constraints — experiment harness";
  print_endline
    "(Bar-Noy & Malewicz, PODC'02 / J. Algorithms 51(2004) 145-169)";
  print_newline ();
  List.iter (fun (id, f) -> if not (no_bechamel && id = "e11") then f ()) to_run;
  print_endline "==================== summary ====================";
  let all_pass = ref true in
  List.iter
    (fun (id, pass, detail, _) ->
      if not pass then all_pass := false;
      Printf.printf "%-5s %-5s %s\n" id
        (if pass then "PASS" else "FAIL")
        detail)
    (List.rev !results);
  (match !json_out with
   | Some dir ->
     (try List.iter (json_out_result dir) (List.rev !results)
      with Sys_error msg ->
        Printf.eprintf "bench: error: --json-out %s\n" msg;
        exit 2)
   | None -> ());
  print_newline ();
  if !all_pass then print_endline "all shape checks passed"
  else begin
    print_endline "SOME SHAPE CHECKS FAILED";
    exit 1
  end
