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

(* Scales a bisection on exact truncated sums returns (80 steps, every
   comparison on the full 10^7-term sum): [pareto_with_mean] must return
   these very floats. At alpha 3 the 1e-12 early stop ends each sum. *)
let pinned_pareto_scales =
  [
    (1.6, 6.0, 0x1.a35f1f8160d7p+1);
    (1.6, 2.0, 0x1.a1c326d3a1d4p-1);
    (1.6, 12.0, 0x1.b8f2a6f4af2fcp+2);
    (3.0, 6.0, 0x1.5e8b1ec17b8cep+3);
  ]

let pinned_pareto_laws =
  lazy
    (List.map
       (fun (alpha, mean, scale) ->
         (alpha, mean, scale, M.pareto_with_mean ~alpha ~mean))
       pinned_pareto_scales)

let test_pareto_with_mean () =
  List.iter
    (fun (_, mean, _, law) ->
      check (float_t 1e-6) "mean matched" mean (M.residence_mean law))
    (Lazy.force pinned_pareto_laws);
  check bool_t "alpha <= 1 rejected" true
    (raises_invalid (fun () -> M.pareto_with_mean ~alpha:1.0 ~mean:6.0));
  check bool_t "mean < 1 rejected" true
    (raises_invalid (fun () -> M.pareto_with_mean ~alpha:1.6 ~mean:0.5))

let test_pareto_scale_bits () =
  List.iter
    (fun (alpha, mean, pinned, law) ->
      match law with
      | M.Pareto { scale; _ } ->
        check bits_t
          (Printf.sprintf "scale bits at alpha %g, mean %g" alpha mean)
          (Int64.bits_of_float pinned) (Int64.bits_of_float scale)
      | _ -> Alcotest.fail "pareto_with_mean returned a non-Pareto law")
    (Lazy.force pinned_pareto_laws);
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

(* Above every scale up to 1e9, and below the lowest scale: at 1e-6 the
   alpha-1.6 law's truncated mean is already 1.0000000005. *)
let test_pareto_unreachable_mean () =
  (match M.pareto_with_mean ~alpha:1.6 ~mean:1e8 with
   | _ -> Alcotest.fail "an unreachable mean was matched"
   | exception Invalid_argument msg ->
     check bool_t "names alpha" true (contains msg "alpha 1.6");
     check bool_t "names mean" true (contains msg "mean 1e+08"));
  match M.pareto_with_mean ~alpha:1.6 ~mean:1.0 with
  | _ -> Alcotest.fail "a mean below the lowest scale's was matched"
  | exception Invalid_argument msg ->
    check bool_t "names alpha" true (contains msg "alpha 1.6");
    check bool_t "names mean" true (contains msg "mean 1 ");
    check bool_t "names the lowest scale" true (contains msg "scale 1e-06")

(* The truncated Pareto mean exactly as first written: ages 0, 1, ...
   summed in order until a term drops below 1e-12 or 10^7 terms are in.
   Returns the sum and its term count. *)
let reference_pareto_sum ~alpha ~scale =
  let sum = ref 0.0 and a = ref 0 and continue = ref true in
  while !continue && !a < 10_000_000 do
    let s =
      if !a = 0 then 1.0
      else (1.0 +. (float_of_int !a /. scale)) ** -.alpha
    in
    sum := !sum +. s;
    if s < 1e-12 then continue := false;
    incr a
  done;
  (!sum, !a)

(* Each reference sum is computed once and shared between the tests
   below: the 10^7-term loop costs a few tenths of a second. *)
let reference_sums = Hashtbl.create 32

let reference_sum ~alpha ~scale =
  match Hashtbl.find_opt reference_sums (alpha, scale) with
  | Some r -> r
  | None ->
    let r = reference_pareto_sum ~alpha ~scale in
    Hashtbl.add reference_sums (alpha, scale) r;
    r

let screen_alphas = [ 1.1; 1.2; 1.6; 2.5; 3.0; 4.0 ]
let screen_scales = [ 0.5; 3.3; 50.0; 400.0 ]

(* The screen may decide a bisection step only if its margin really
   bounds the distance to the exact sum. Alphas 1.1-1.6 run to the 10^7
   cap; 2.5-4 stop early (alpha 4 at scale 0.5 before the directly
   summed head ends, where the screen is the exact sum). *)
let test_pareto_screen_margin () =
  List.iter
    (fun alpha ->
      List.iter
        (fun scale ->
          let exact, terms = reference_sum ~alpha ~scale in
          let s = M.pareto_mean_screen ~alpha ~scale in
          let at = Printf.sprintf "alpha %g, scale %g" alpha scale in
          check int_t ("term count at " ^ at) terms s.M.terms;
          if abs_float (s.M.value -. exact) > s.M.margin then
            Alcotest.failf "%s: |G - sum| = %g exceeds the margin %g" at
              (abs_float (s.M.value -. exact))
              s.M.margin;
          check bool_t ("margin can decide at " ^ at) true
            (s.M.margin <= 1e-8 *. exact))
        screen_scales)
    screen_alphas

(* Laws that exercise crossing mode, where a slowly falling sub-block is
   counted by the half-integers its series values cross. (16, 1000)
   enters it at age 4514, in the third block after the head, and
   (2.75, 20) ~130k ages before its 1e-12 stop, which falls inside a
   crossing-mode block. The first three alpha-4 scales are tuned so the
   real term at one age lies 2e-10 ulp below a half-integer, where the
   truncated series still reads above it: at the second-to-last age of
   a sub-block (36117 and 45351) a crossing there must not be
   certified, and at the last (36118) the end term must not be taken as
   clear of its level. Those ages were sub-block ends with 256-age
   blocks. The fourth puts the same near-tie (1e-10 ulp below, the
   series 3e-9 above) at age 30793, the last of a counted sub-block
   with 1024-age blocks. *)
let crossing_laws =
  [
    (16.0, 1000.0);
    (2.75, 20.0);
    (4.0, 0x1.9007ef7cd933cp+5);
    (4.0, 0x1.901b86cb6e0d2p+5);
    (4.0, 0x1.900ac55ce0aa3p+5);
    (4.0, 0x1.9006c41c34f35p+5);
  ]

(* Near-ties for series mode, whose forward differences carry their own
   rounding bound E on top of the series window w. At the last age of
   a sub-block (520132 and 464729), the float term lies ~5e-9 ulp below
   a half-integer while the stepped series reads above it by more than
   w, though not by more than w + E: a window without E takes the term
   and rounds it up. *)
let series_laws =
  [ (1.6, 0x1.a3d4cfd9c4ae4p+1); (1.6, 0x1.a3d507cf4ba95p+1) ]

(* [residence_mean] adds most terms as whole ulps of the running sum;
   it must still return the first-written loop's float, bit for bit:
   on the screen-audit grid, at the pinned matched scales (the
   (1.6, 12) law's sum is exactly 12.0), and at (1.6, 4.5), whose sum
   crosses 8 after the 2000-term head. *)
let test_pareto_exact_sum_bits () =
  List.iter
    (fun (alpha, scale) ->
      let exact, _ = reference_sum ~alpha ~scale in
      check bits_t
        (Printf.sprintf "sum bits at alpha %g, scale %h" alpha scale)
        (Int64.bits_of_float exact)
        (Int64.bits_of_float (M.residence_mean (M.Pareto { alpha; scale }))))
    (List.concat_map
       (fun alpha -> List.map (fun scale -> (alpha, scale)) screen_scales)
       screen_alphas
    @ List.map (fun (alpha, _, scale) -> (alpha, scale)) pinned_pareto_scales
    @ [ (1.6, 4.5) ]
    @ crossing_laws @ series_laws)

(* Matched scales near powers of two, from a bisection on exact sums:
   the exact sums of each match fall on both sides of 4 (sum 4 + 1 ulp
   at the match) or of 8 (sum 8 - 2 ulps), so the block table sees
   binade changes between sums. *)
let pinned_binade_edge_scales =
  [ (1.6, 4.0, 0x1.0805c265353dp+1); (1.6, 8.0, 0x1.1ee93a6901948p+2) ]

(* One table through a match, kept for its summed scales and its work. *)
let matched_tables =
  lazy
    (List.map
       (fun (alpha, mean, pinned) ->
         let t = M.pareto_blocks ~alpha in
         let law = M.pareto_match t ~mean in
         (alpha, mean, pinned, law, t))
       ((1.6, 6.0, 0x1.a35f1f8160d7p+1) :: pinned_binade_edge_scales))

let test_pareto_binade_edge_bits () =
  List.iter
    (fun (alpha, mean, pinned, law, _) ->
      match law with
      | M.Pareto { scale; _ } ->
        check bits_t
          (Printf.sprintf "scale bits at alpha %g, mean %g" alpha mean)
          (Int64.bits_of_float pinned) (Int64.bits_of_float scale)
      | _ -> Alcotest.fail "pareto_match returned a non-Pareto law")
    (Lazy.force matched_tables)

(* Scales around [scale] in the order a table meets them: a walk whose
   steps are one to four ulps or a relative 1e-16 to 1e-3, up or down,
   then the visited scales again, shuffled. *)
let walk ~seed ~scale ~steps =
  let rng = Prob.Rng.create ~seed in
  let s = ref scale and visited = ref [ scale ] in
  for _ = 1 to steps do
    let up = Prob.Rng.bool rng in
    (if Prob.Rng.bool rng then
       for _ = 0 to Prob.Rng.int rng 4 do
         s := if up then Float.succ !s else Float.pred !s
       done
     else
       let rel = 10.0 ** (-16.0 +. Prob.Rng.float rng 13.0) in
       s := !s *. if up then 1.0 +. rel else 1.0 -. rel);
    visited := !s :: !visited
  done;
  let again = Array.of_list !visited in
  Prob.Rng.shuffle rng again;
  List.rev !visited @ Array.to_list again

(* A table threaded through a scale sequence gives every sum the bits
   of a fresh table's sum, which "pareto exact sum bits" pins to the
   reference loop. The sequences: the (1.6, 6) match's exact sums;
   scales whose sums fall on alternate sides of 8 and of 4, crossing
   them within ~20 blocks of the cap; and walks that also move the
   1e-12 stop (alpha 3), cross 8 after the head (1.6, 4.5) or end on a
   sum of exactly 12. *)
let test_pareto_block_reuse_bits () =
  let fresh = Hashtbl.create 64 in
  let same ~what ~alpha scales =
    let t = M.pareto_blocks ~alpha in
    List.iteri
      (fun i scale ->
        let expected =
          match Hashtbl.find_opt fresh (alpha, scale) with
          | Some sum -> sum
          | None ->
            let sum = M.residence_mean (M.Pareto { alpha; scale }) in
            Hashtbl.add fresh (alpha, scale) sum;
            sum
        in
        check bits_t
          (Printf.sprintf "%s: sum %d, scale %h" what i scale)
          (Int64.bits_of_float expected)
          (Int64.bits_of_float (M.pareto_sum t ~scale)))
      scales
  in
  let alpha, _, _, _, t = List.hd (Lazy.force matched_tables) in
  same ~what:"the (1.6, 6) match" ~alpha (M.pareto_summed t);
  List.iter
    (fun (alpha, mean, pinned) ->
      same
        ~what:(Printf.sprintf "straddling %g" mean)
        ~alpha
        (List.map
           (fun rel -> pinned *. (1.0 +. rel))
           [ 4e-9; -4e-9; 2e-8; -2e-8; 1e-9; -1e-9 ]))
    pinned_binade_edge_scales;
  (* The running sum at the start of block 9758 (age 9994192) is 4 + 1
     ulp at the first scale and just below 4 at the second: a block
     recorded above 4 meets a sum below it, two ulps of scale lower. *)
  same ~what:"4 at a block start" ~alpha:1.6
    [ 0x1.0805c2fe4d388p+1; 0x1.0805c2fe4d386p+1 ];
  List.iter
    (fun (what, alpha, scale, seed) ->
      same ~what ~alpha (walk ~seed ~scale ~steps:6))
    [
      ("walk at the (1.6, 6) match", 1.6, 0x1.a35f1f8160d7p+1, 1);
      ("walk at (1.1, 400)", 1.1, 400.0, 2);
      ("walk at the (3, 6) match", 3.0, 0x1.5e8b1ec17b8cep+3, 3);
      ("walk at (1.6, 4.5)", 1.6, 4.5, 4);
      ("walk at the (1.6, 12) match", 1.6, 0x1.b8f2a6f4af2fcp+2, 5);
      ("walk at (16, 1000)", 16.0, 1000.0, 6);
      ("walk at (2.75, 20)", 2.75, 20.0, 7);
      ("walk at an alpha-4 near-tie", 4.0, 0x1.9007ef7cd933cp+5, 8);
    ]

(* Reuse is what makes the match cheap: a regression that sums every
   block again (25 sums, 2.5e8 terms at (1.6, 6)) fails here, with no
   timing involved. *)
let test_pareto_match_work () =
  List.iter
    (fun (alpha, mean, _, _, t) ->
      let work = M.pareto_recomputed t in
      if work > 30_000_000 then
        Alcotest.failf "match at (%g, %g) computed %d terms, above 3e7" alpha
          mean work)
    (Lazy.force matched_tables)

(* The evaluations (pows plus series values) the matches make, bounded
   at their measured counts + 10%: crossing mode cut the (1.6, 6) match
   from 1.78e7 to 1.01e7, and the bracketing probes to 3.54e6 (one full
   sum's worth); losing either fails here. *)
let test_pareto_match_evaluations () =
  List.iter2
    (fun (alpha, mean, _, _, t) bound ->
      let work = M.pareto_evaluations t in
      if work > bound then
        Alcotest.failf "match at (%g, %g) made %d evaluations, above %d" alpha
          mean work bound)
    (Lazy.force matched_tables)
    [ 3_893_768; 3_880_931; 4_660_286 ]

(* The exact sums the matches make, bounded at their measured counts
   + 10%: 12, 14 and 12 with the bracketing probes, 25, 25 and 24
   without them. *)
let test_pareto_match_exact_sums () =
  List.iter2
    (fun (alpha, mean, _, _, t) bound ->
      let sums = List.length (M.pareto_summed t) in
      if sums > bound then
        Alcotest.failf "match at (%g, %g) made %d exact sums, above %d" alpha
          mean sums bound)
    (Lazy.force matched_tables)
    [ 13; 15; 13 ]

(* The exact sum allocates nothing per block or per term: a cold sum,
   which sums every block, and a warm one on the same table, which
   keeps them all, each stay within 64 minor words (the table's rows
   are one major-heap array). *)
let test_pareto_sum_allocation () =
  let scale = 0x1.a35f1f8160d7p+1 in
  let t = M.pareto_blocks ~alpha:1.6 in
  let words what =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (M.pareto_sum t ~scale));
    let words = Gc.minor_words () -. before in
    if words > 64.0 then
      Alcotest.failf "%s sum allocated %.0f minor words, above 64" what words
  in
  words "cold";
  words "warm"

(* The match as it was before the bracketing probes: the same bracket,
   midpoints and fixed-point stop, each step decided by the screen or
   else by the exact sum on one shared table. *)
let screen_then_sum_match ~alpha ~mean =
  let t = M.pareto_blocks ~alpha in
  let below scale =
    let s = M.pareto_mean_screen ~alpha ~scale in
    if s.M.value -. mean > s.M.margin then false
    else if mean -. s.M.value > s.M.margin then true
    else M.pareto_sum t ~scale < mean
  in
  let lo = ref 1e-6 and hi = ref 1.0 in
  let short = ref (below !hi) in
  while !short && !hi < 1e9 do
    hi := !hi *. 2.0;
    short := below !hi
  done;
  if !short then Alcotest.failf "(%g, %g) is unreachable" alpha mean;
  let steps = ref 0 and fixed = ref false in
  while (not !fixed) && !steps < 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if mid = !lo || mid = !hi then fixed := true
    else if below mid then lo := mid
    else hi := mid;
    incr steps
  done;
  0.5 *. (!lo +. !hi)

(* Laws with no pinned scale: an early stop (2.5, 6) and (3, 2), a
   match below scale 1 (1.6, 1.5), and heavier tails (1.4, 10) and
   (1.2, 6), whose first exact sums recompute most blocks. *)
let test_pareto_match_differential () =
  List.iter
    (fun (alpha, mean) ->
      match M.pareto_with_mean ~alpha ~mean with
      | M.Pareto { scale; _ } ->
        check bits_t
          (Printf.sprintf "scale bits at alpha %g, mean %g" alpha mean)
          (Int64.bits_of_float (screen_then_sum_match ~alpha ~mean))
          (Int64.bits_of_float scale)
      | _ -> Alcotest.fail "pareto_with_mean returned a non-Pareto law")
    [ (2.5, 6.0); (3.0, 2.0); (1.6, 1.5); (1.4, 10.0); (1.2, 6.0) ]

(* The lemma behind the probes: scales s < s' a relative gap of at least
   [pareto_gap ~alpha s'] apart have exact sums F(s) <= F(s'). One table
   per alpha runs through pairs exactly 2g and 4g apart, below scales
   at and near the (1.6, 6), (1.05, 3) and (3, 6) matches and the
   crossing-mode law (16, 1000). *)
let test_pareto_gap_monotone () =
  List.iter
    (fun (alpha, scale) ->
      let t = M.pareto_blocks ~alpha in
      List.iter
        (fun rel ->
          let s' = scale *. (1.0 +. rel) in
          let f' = M.pareto_sum t ~scale:s' in
          List.iter
            (fun k ->
              let s = s' *. (1.0 -. (k *. M.pareto_gap ~alpha s')) in
              let at = Printf.sprintf "alpha %g, %gg below %h" alpha k s' in
              check bool_t ("separated at " ^ at) true (s < s');
              let f = M.pareto_sum t ~scale:s in
              if f > f' then
                Alcotest.failf "%s: F(s) = %h above F(s') = %h" at f f')
            [ 2.0; 4.0 ])
        [ 0.0; 1e-13; -1e-13; 3e-12; -3e-12 ])
    [
      (1.6, 0x1.a35f1f8160d7p+1);
      (1.05, 0x1.8775f5385b224p-3);
      (3.0, 0x1.5e8b1ec17b8cep+3);
      (16.0, 1000.0);
    ]

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
  check (float_t 0.0) "random walk absorbs" 1.0 rw.M.rows.(0).(0);
  let dw = M.drift_walk h ~stay:0.3 ~east_bias:2.0 in
  check (float_t 0.0) "drift walk absorbs" 1.0 dw.M.rows.(0).(0)

let test_create_names_offending_row () =
  match M.create [| [| 0.5; 0.5 |]; [| 0.7; 0.5 |] |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check bool_t "names the row" true (contains msg "row 1");
    check bool_t "names the sum" true (contains msg "1.2")

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

let () =
  Alcotest.run "aging"
    [
      ( "residence",
        [
          Alcotest.test_case "survival/hazard shapes" `Quick
            test_residence_survival_hazard;
          Alcotest.test_case "pareto mean matching" `Quick
            test_pareto_with_mean;
          Alcotest.test_case "pareto scale bits" `Quick test_pareto_scale_bits;
          Alcotest.test_case "pareto unreachable mean" `Quick
            test_pareto_unreachable_mean;
          Alcotest.test_case "pareto screen margin" `Quick
            test_pareto_screen_margin;
          Alcotest.test_case "pareto exact sum bits" `Quick
            test_pareto_exact_sum_bits;
          Alcotest.test_case "pareto scale bits near powers of two" `Quick
            test_pareto_binade_edge_bits;
          Alcotest.test_case "pareto block reuse bits" `Quick
            test_pareto_block_reuse_bits;
          Alcotest.test_case "pareto match work" `Quick test_pareto_match_work;
          Alcotest.test_case "pareto match evaluations" `Quick
            test_pareto_match_evaluations;
          Alcotest.test_case "pareto match exact sums" `Quick
            test_pareto_match_exact_sums;
          Alcotest.test_case "pareto sum allocation" `Quick
            test_pareto_sum_allocation;
          Alcotest.test_case "pareto match differential" `Quick
            test_pareto_match_differential;
          Alcotest.test_case "pareto gap monotone" `Quick
            test_pareto_gap_monotone;
          Alcotest.test_case "string round-trip" `Quick test_residence_strings;
          Alcotest.test_case "validation" `Quick test_validate_residence;
        ] );
      ( "walk regressions",
        [
          Alcotest.test_case "neighbor-less cells absorb" `Quick
            test_single_cell_walks_absorbing;
          Alcotest.test_case "create names offender" `Quick
            test_create_names_offending_row;
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
