(* Quickstart: set up a conference-call paging problem and solve it.

   Three mobile users roam a 12-cell location area. The system's location
   profiles say each user is concentrated around a few home cells. We
   have d = 3 paging rounds; find a strategy that pages few cells in
   expectation, and compare it against blanket paging.

   Run with: dune exec examples/quickstart.exe *)

open Confcall

let () =
  (* Location probabilities: one row per user, one column per cell.
     Rows must sum to 1. *)
  let alice =
    [| 0.30; 0.25; 0.15; 0.10; 0.05; 0.04; 0.03; 0.03; 0.02; 0.01; 0.01; 0.01 |]
  in
  let bob =
    [| 0.02; 0.03; 0.05; 0.30; 0.25; 0.15; 0.08; 0.04; 0.03; 0.02; 0.02; 0.01 |]
  in
  let carol =
    [| 0.01; 0.01; 0.02; 0.02; 0.04; 0.10; 0.30; 0.25; 0.15; 0.05; 0.03; 0.02 |]
  in
  let inst = Instance.create ~d:3 [| alice; bob; carol |] in
  Printf.printf "Instance: m=%d devices, c=%d cells, delay budget d=%d\n\n"
    inst.Instance.m inst.Instance.c inst.Instance.d;

  (* The paper's heuristic: order cells by expected number of devices,
     cut the order with dynamic programming (Theorem 4.8: within
     e/(e-1) ~ 1.582 of optimal). *)
  let result = Greedy.solve inst in
  Printf.printf "Greedy strategy : %s\n"
    (Strategy.to_string result.Strategy.strategy);
  Printf.printf "Expected paging : %.3f cells\n" result.Strategy.expected_paging;
  Printf.printf "Expected rounds : %.3f\n\n"
    (Strategy.expected_rounds inst result.Strategy.strategy);

  (* Baseline: page every cell at once (the GSM/IS-41 behaviour). *)
  let blanket = Strategy.page_all inst.Instance.c in
  Printf.printf "Blanket paging  : %.3f cells (1 round)\n"
    (Strategy.expected_paging inst blanket);

  (* A certified lower bound on what ANY strategy could achieve. *)
  Printf.printf "Lower bound     : %.3f cells\n\n" (Bounds.lower_bound inst);

  (* This instance is small enough to solve exactly. *)
  (match Optimal.best inst with
   | Some opt ->
     Printf.printf "Exact optimum   : %.3f cells (strategy %s)\n"
       opt.Strategy.expected_paging
       (Strategy.to_string opt.Strategy.strategy);
     Printf.printf "Greedy/OPT      : %.4f (Theorem 4.8 guarantees <= %.4f)\n"
       (result.Strategy.expected_paging /. opt.Strategy.expected_paging)
       Greedy.approximation_factor
   | None -> print_endline "Instance too large for exact solving.");

  (* Sanity: Monte Carlo agreement with the Lemma 2.1 formula. *)
  let rng = Prob.Rng.create ~seed:1 in
  let mc =
    Strategy.monte_carlo_ep inst result.Strategy.strategy rng ~trials:200_000
  in
  Printf.printf "\nMonte Carlo     : %.3f +/- %.3f cells (200k trials)\n"
    mc.Prob.Stats.mean
    (Prob.Stats.ci95_halfwidth mc)
