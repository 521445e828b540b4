(* Solving at metropolitan scale.

   The O(d·c²) dynamic program (Theorem 4.8) handles thousands of cells
   directly; for location areas with tens of thousands of cells we
   restrict cut points to block boundaries (the reported expectation
   stays exact for the returned strategy). This example sizes both, and
   shows the alternative solvers on a mid-size instance.

   Run with: dune exec examples/large_scale.exe *)

open Confcall

let time f =
  let t0 = Sys.time () in
  let result = f () in
  result, Sys.time () -. t0

let () =
  let rng = Prob.Rng.create ~seed:23 in

  print_endline "== Full DP vs coarse DP ==";
  Printf.printf "%10s %8s %14s %10s\n" "cells" "block" "EP" "time(s)";
  List.iter
    (fun (c, block) ->
      let inst = Instance.random_zipf rng ~s:1.05 ~m:2 ~c ~d:4 in
      let order = Instance.weight_order inst in
      (if c <= 4096 then begin
         let full, t = time (fun () -> Order_dp.solve inst ~order) in
         Printf.printf "%10d %8s %14.1f %10.3f\n" c "full"
           full.Strategy.expected_paging t
       end);
      let coarse, t =
        time (fun () -> Order_dp.solve_coarse ~block inst ~order)
      in
      Printf.printf "%10d %8d %14.1f %10.3f\n" c block
        coarse.Strategy.expected_paging t)
    [ 1024, 16; 8192, 64; 65536, 256 ];

  print_endline "\n== Solver comparison at c = 30 (m = 2, d = 3) ==";
  let inst = Instance.random_zipf rng ~s:1.0 ~m:2 ~c:30 ~d:3 in
  let lb = Bounds.lower_bound inst in
  let entries =
    [
      "page-all (blanket)", (fun () -> 30.0);
      ( "greedy (Thm 4.8)",
        fun () -> (Greedy.solve inst).Strategy.expected_paging );
      ( "local search",
        fun () -> (fst (Local_search.hill_climb inst)).Strategy.expected_paging );
      "QAP route (Sec 5.1)", (fun () -> snd (Qap.solve_conference_m2 inst));
    ]
  in
  Printf.printf "%-22s %12s %10s %16s\n" "solver" "EP" "time(s)"
    "above lower bound";
  List.iter
    (fun (name, f) ->
      let ep, t = time f in
      Printf.printf "%-22s %12.3f %10.3f %15.2f%%\n" name ep t
        (100.0 *. (ep -. lb) /. lb))
    entries;
  Printf.printf "%-22s %12.3f\n" "certified lower bound" lb;
  print_endline
    "\nThe certified bound shows how much optimality headroom remains\n\
     even where exhaustive search is out of reach (2^30 strategies)."
