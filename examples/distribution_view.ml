(* Beyond the expectation: the paging-cost distribution.

   The Conference Call objective is E[cells paged], but the full cost
   distribution is closed-form: the search stops after round r with
   probability F_r − F_{r−1}, having paged b_r cells. Two strategies
   with similar means can have very different tails — which matters when
   the paging channel is the bottleneck.

   Run with: dune exec examples/distribution_view.exe *)

open Confcall

let bar p = String.concat "" (List.init (int_of_float (60.0 *. p)) (fun _ -> "#"))

let show name inst strategy =
  let dist = Analysis.cost_distribution inst strategy in
  Printf.printf "%s\n  mean %.2f  sd %.2f  p50 %.0f  p90 %.0f  p99 %.0f\n" name
    dist.Analysis.mean dist.Analysis.stddev
    (Analysis.quantile dist 0.5)
    (Analysis.quantile dist 0.9)
    (Analysis.quantile dist 0.99);
  Array.iteri
    (fun i p ->
      Printf.printf "  cost %3.0f  %.4f %s\n" dist.Analysis.support.(i) p
        (bar p))
    dist.Analysis.probabilities;
  print_newline ()

let () =
  let rng = Prob.Rng.create ~seed:9 in
  let inst = Instance.random_zipf rng ~s:1.2 ~m:2 ~c:24 ~d:4 in

  let greedy = (Greedy.solve inst).Strategy.strategy in
  show "greedy (4 rounds)" inst greedy;

  (* A cautious alternative: front-load more cells. Lower tail spread,
     higher mean — the distribution view makes the trade visible. *)
  let sizes = Strategy.sizes greedy in
  let order = Greedy.order inst in
  let cautious =
    let total = Array.fold_left ( + ) 0 sizes in
    let first = Stdlib.min (total - 3) (sizes.(0) * 2) in
    let rest = total - first in
    let spread = Array.make 3 (rest / 3) in
    spread.(0) <- spread.(0) + (rest mod 3);
    Strategy.of_sizes ~order ~sizes:(Array.append [| first |] spread)
  in
  show "front-loaded (4 rounds)" inst cautious;

  let blanket = Strategy.page_all inst.Instance.c in
  show "blanket (1 round)" inst blanket;

  print_endline "The delay/paging frontier for this instance:";
  Printf.printf "%6s %12s %12s\n" "d" "E[rounds]" "EP";
  Array.iteri
    (fun i (rounds, ep) ->
      Printf.printf "%6d %12.3f %12.2f\n" (i + 1) rounds ep)
    (Analysis.delay_paging_frontier inst ~max_d:8)
