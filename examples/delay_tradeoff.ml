(* The delay/paging tradeoff that motivates the whole problem (§1.1):
   more paging rounds allow fewer cells paged in expectation. This
   example sweeps the delay budget d for conferences of different sizes
   over a Zipf-profiled 64-cell location area and prints the curve.

   Run with: dune exec examples/delay_tradeoff.exe *)

open Confcall

let () =
  let c = 64 in
  let rng = Prob.Rng.create ~seed:7 in
  print_endline "Expected cells paged vs delay budget (c = 64, Zipf profiles)";
  print_endline "";
  Printf.printf "%4s" "d";
  List.iter (fun m -> Printf.printf "%12s" (Printf.sprintf "m=%d" m)) [ 1; 2; 4; 8 ];
  print_newline ();
  let instances =
    List.map
      (fun m -> m, Instance.random_zipf rng ~s:1.1 ~m ~c ~d:1)
      [ 1; 2; 4; 8 ]
  in
  List.iter
    (fun d ->
      Printf.printf "%4d" d;
      List.iter
        (fun (_, base) ->
          let inst = Instance.with_d base d in
          let ep = (Greedy.solve inst).Strategy.expected_paging in
          Printf.printf "%12.2f" ep)
        instances;
      print_newline ())
    [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 16 ];
  print_newline ();
  print_endline "Reading the table:";
  print_endline "- d = 1 is blanket paging: all 64 cells, whatever m is.";
  print_endline "- each extra round buys a large saving at first, then less;";
  print_endline "- bigger conferences (m) are intrinsically harder: all m";
  print_endline "  devices must fall in the paged prefix for the search to stop.";
  print_newline ();

  (* The uniform single-device closed form from §1.1 for comparison. *)
  print_endline "Uniform single device (closed form, c = 64):";
  List.iter
    (fun d ->
      Printf.printf "  d=%-2d  EP = %.1f%s\n" d
        (Single.uniform_ep ~c ~d)
        (if d = 2 then "   <- the paper's 3c/4 example" else ""))
    [ 1; 2; 4; 8 ]
