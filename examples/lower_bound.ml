(* Walk-through of the §4.3 lower-bound instance in exact arithmetic.

   The instance: m = 2 devices, c = 8 cells, d = 2 rounds.
     p(1,1) = 2/7, p(2,1) = p(1,7) = p(1,8) = 0, all else 1/7.
   The paper: the optimal strategy pages cells 2..6 first and achieves
   expected paging 317/49, while the cell-weight heuristic pages cells
   1..5 first and achieves 320/49 — a 320/317 performance gap.

   Run with: dune exec examples/lower_bound.exe *)

module Q = Numeric.Rational

open Confcall

let () =
  let s = Q.of_ints 1 7 and z = Q.zero in
  let p1 = [| Q.of_ints 2 7; s; s; s; s; s; z; z |] in
  let p2 = [| z; s; s; s; s; s; s; s |] in
  let exact = Instance.Exact.create ~d:2 [| p1; p2 |] in
  print_endline "The Section 4.3 instance (m = 2, c = 8, d = 2):";
  Array.iteri
    (fun i row ->
      Printf.printf "  device %d: %s\n" (i + 1)
        (String.concat " " (Array.to_list (Array.map Q.to_string row))))
    exact.Instance.Exact.p;
  print_newline ();

  (* Exact optimum by exhaustive search over all two-round strategies. *)
  let opt_strategy, opt_ep = Optimal.exhaustive_exact exact in
  Printf.printf "Optimal strategy   : %s\n" (Strategy.to_string opt_strategy);
  Printf.printf "Optimal EP         : %s = %.6f\n" (Q.to_string opt_ep)
    (Q.to_float opt_ep);

  (* The heuristic on the float version of the same instance. *)
  let inst = Instance.Exact.to_float exact in
  let heur = Greedy.solve inst in
  let heur_ep = Strategy.expected_paging_exact exact heur.Strategy.strategy in
  Printf.printf "Heuristic strategy : %s\n"
    (Strategy.to_string heur.Strategy.strategy);
  Printf.printf "Heuristic EP       : %s = %.6f\n" (Q.to_string heur_ep)
    (Q.to_float heur_ep);

  let ratio = Q.div heur_ep opt_ep in
  Printf.printf "Performance ratio  : %s = %.6f\n" (Q.to_string ratio)
    (Q.to_float ratio);
  print_newline ();
  assert (Q.equal opt_ep (Q.of_ints 317 49));
  assert (Q.equal heur_ep (Q.of_ints 320 49));
  assert (Q.equal ratio (Q.of_ints 320 317));
  print_endline "Verified exactly: OPT = 317/49, heuristic = 320/49,";
  print_endline "ratio = 320/317 — the paper's lower bound on the heuristic's";
  Printf.printf "performance ratio (vs the e/(e-1) = %.6f upper bound).\n"
    Greedy.approximation_factor;
  print_newline ();

  (* Why the heuristic misses the optimum: cell weights. *)
  print_endline "Cell weights (expected number of devices per cell):";
  for j = 0 to 7 do
    Printf.printf "  cell %d: %s\n" (j + 1)
      (Q.to_string (Instance.Exact.cell_weight exact j))
  done;
  print_endline "Cells 1..6 tie at 2/7; the heuristic breaks ties by index";
  print_endline "and pages {1..5} first, but {2..6} is strictly better:";
  print_endline "cell 1 is worthless for device 2 (probability 0 there).";
  print_newline ();
  (* The paper's remark: a tiny perturbation forces the same choice
     without relying on tie-breaking. *)
  let rng = Prob.Rng.create ~seed:3 in
  let perturbed =
    Instance.create ~d:2
      (Array.map
         (fun row ->
           Prob.Dist.perturb rng ~eps:1e-9 (Prob.Dist.clamp_positive row))
         inst.Instance.p)
  in
  let h2 = Greedy.solve perturbed in
  Printf.printf
    "Perturbed by 1e-9 (positive probabilities): heuristic EP = %.6f\n"
    h2.Strategy.expected_paging
