(* The prefix-chain engine behind Optimal.exhaustive, exhaustive_exact
   and Class_solver: a differential against the labelling enumeration
   it replaced (Exhaustive_ref), exact metamorphic properties on dyadic
   instances, and bounded work when an unguarded search is cancelled. *)

open Confcall
module Q = Numeric.Rational

let check = Alcotest.check
let bool_t = Alcotest.bool

(* Rows of multiples of 1/16: every mass, success probability and gain
   is a short dyadic, so float arithmetic computes them exactly and
   ties between strategies are exact ties. *)
let dyadic_rows rng ~m ~c =
  let units = 16 in
  Array.init m (fun _ ->
      let row = Array.make c 0 in
      for _ = 1 to units do
        let j = Prob.Rng.int rng c in
        row.(j) <- row.(j) + 1
      done;
      Array.map (fun u -> Q.of_ints u units) row)

let objective_of rng m =
  match Prob.Rng.int rng 3 with
  | 0 -> Objective.Find_all
  | 1 -> Objective.Find_any
  | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)

let label ~case ~family ~m ~c ~d ~objective ~max_group =
  Printf.sprintf "case %d (%s m=%d c=%d d=%d %s b=%s)" case family m c d
    (Objective.to_string objective)
    (match max_group with None -> "-" | Some b -> string_of_int b)

(* Largest c per d that keeps the reference's dᶜ labellings cheap. *)
let max_c = [| 9; 12; 8; 7; 6; 6 |]

let test_differential () =
  let rng = Prob.Rng.create ~seed:2505 in
  let families = [| "simplex"; "zipf"; "uniform"; "dyadic" |] in
  let exact_checked = ref 0 in
  for case = 0 to 419 do
    let family = families.(case mod 4) in
    (* d = 6 (c = 6 only) costs the reference 6⁶ labellings: one case in twenty *)
    let d = if case mod 20 = 19 then 6 else 1 + Prob.Rng.int rng 5 in
    let lo_c = max 2 d in
    let c = lo_c + Prob.Rng.int rng (max_c.(d - 1) - lo_c + 1) in
    let m = 1 + Prob.Rng.int rng 4 in
    let exact_rows =
      if family = "dyadic" then Some (dyadic_rows rng ~m ~c) else None
    in
    let inst =
      match (family, exact_rows) with
      | "simplex", _ -> Instance.random_uniform_simplex rng ~m ~c ~d
      | "zipf", _ -> Instance.random_zipf rng ~s:1.1 ~m ~c ~d
      | "uniform", _ -> Instance.all_uniform ~m ~c ~d
      | _, Some rows -> Instance.Exact.to_float (Instance.Exact.create ~d rows)
      | _ -> assert false
    in
    let objective = objective_of rng m in
    let lo = (c + d - 1) / d in
    let max_group =
      if Prob.Rng.int rng 2 = 0 then None
      else Some (lo + Prob.Rng.int rng (c - lo + 1))
    in
    let name = label ~case ~family ~m ~c ~d ~objective ~max_group in
    let want = Exhaustive_ref.exhaustive ~objective ?max_group inst in
    let got = Optimal.exhaustive ~objective ?max_group inst in
    check bool_t (name ^ ": same EP bits") true
      (Int64.equal
         (Int64.bits_of_float want.Optimal.expected_paging)
         (Int64.bits_of_float got.Optimal.expected_paging));
    check bool_t (name ^ ": same strategy") true
      (Strategy.equal want.Optimal.strategy got.Optimal.strategy);
    if max_group = None then begin
      let cls = Class_solver.solve ~objective inst in
      let ref_ep = want.Optimal.expected_paging in
      check bool_t (name ^ ": class solver EP") true
        (Float.abs (cls.Class_solver.expected_paging -. ref_ep)
        <= 1e-12 *. ref_ep);
      match exact_rows with
      | Some rows when float_of_int d ** float_of_int c <= 1000.0 ->
        incr exact_checked;
        let ex = Instance.Exact.create ~d rows in
        let ws, wep = Exhaustive_ref.exhaustive_exact ~objective ex in
        let gs, gep = Optimal.exhaustive_exact ~objective ex in
        check bool_t (name ^ ": exact EP") true (Q.equal wep gep);
        check bool_t (name ^ ": exact strategy") true (Strategy.equal ws gs);
        check bool_t (name ^ ": class solver exact EP") true
          (Q.equal wep
             (Strategy.expected_paging_exact ~objective ex
                cls.Class_solver.strategy))
      | _ -> ()
    end
  done;
  check bool_t "exact rationals checked on dyadic instances" true
    (!exact_checked >= 15)

(* ---------------- metamorphic properties, in rationals ---------------- *)

let dyadic_instances () =
  let rng = Prob.Rng.create ~seed:2506 in
  List.init 24 (fun _ ->
      let m = 1 + Prob.Rng.int rng 3 in
      let c = 2 + Prob.Rng.int rng 6 in
      (rng, dyadic_rows rng ~m ~c, objective_of rng m))

let opt_ep ~objective ~d rows =
  snd (Optimal.exhaustive_exact ~objective (Instance.Exact.create ~d rows))

let test_monotone_in_d () =
  List.iter
    (fun (_, rows, objective) ->
      let c = Array.length rows.(0) in
      for d = 1 to c - 1 do
        check bool_t
          (Printf.sprintf "c=%d: OPT(d=%d) <= OPT(d=%d)" c (d + 1) d)
          true
          (Q.compare (opt_ep ~objective ~d:(d + 1) rows)
             (opt_ep ~objective ~d rows)
          <= 0)
      done)
    (dyadic_instances ())

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prob.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_relabelling_invariant () =
  List.iter
    (fun (rng, rows, objective) ->
      let m = Array.length rows and c = Array.length rows.(0) in
      let d = 1 + Prob.Rng.int rng c in
      let cells = shuffle rng (Array.init c Fun.id) in
      let devices = shuffle rng (Array.init m Fun.id) in
      let moved =
        Array.map (fun i -> Array.map (fun j -> rows.(i).(j)) cells) devices
      in
      check bool_t
        (Printf.sprintf "m=%d c=%d d=%d: OPT invariant" m c d)
        true
        (Q.equal (opt_ep ~objective ~d rows) (opt_ep ~objective ~d moved)))
    (dyadic_instances ())

let test_bandwidth_monotone () =
  List.iter
    (fun (rng, rows, objective) ->
      let c = Array.length rows.(0) in
      let d = 1 + Prob.Rng.int rng c in
      let ex = Instance.Exact.create ~d rows in
      let inst = Instance.Exact.to_float ex in
      let uncapped = snd (Optimal.exhaustive_exact ~objective ex) in
      let capped b =
        Strategy.expected_paging_exact ~objective ex
          (Bandwidth.exhaustive ~objective inst ~b).Optimal.strategy
      in
      let prev = ref None in
      for b = (c + d - 1) / d to c do
        let ep = capped b in
        let name = Printf.sprintf "c=%d d=%d b=%d" c d b in
        check bool_t (name ^ ": never below the uncapped optimum") true
          (Q.compare ep uncapped >= 0);
        Option.iter
          (fun p ->
            check bool_t (name ^ ": non-increasing in b") true
              (Q.compare ep p <= 0))
          !prev;
        prev := Some ep
      done;
      check bool_t "b = c is the uncapped optimum" true
        (Q.equal (capped c) uncapped))
    (dyadic_instances ())

(* ---------------- bounded work ---------------- *)

(* c = 40 is far beyond the memo cap: the unguarded search runs without
   a memo, polls its token and unwinds, and the major heap stays put —
   nothing is sized by 2ᶜ (or by the cap's 2²⁰ slots). *)
let test_unguarded_cancel_bounded () =
  let rng = Prob.Rng.create ~seed:40 in
  let inst = Instance.random_uniform_simplex rng ~m:3 ~c:40 ~d:4 in
  let polls = ref 0 in
  let cancel =
    Cancel.of_probe ~every:1 (fun () ->
        incr polls;
        !polls > 5)
  in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  (match Optimal.exhaustive ~guard:false ~cancel inst with
   | _ -> Alcotest.fail "an unguarded c = 40 search finished"
   | exception Cancel.Cancelled -> ());
  let growth = (Gc.quick_stat ()).Gc.heap_words - before in
  check bool_t "fired after a few polls" true (!polls = 6);
  check bool_t
    (Printf.sprintf "major heap growth %d words < 2^18" growth)
    true
    (growth < 1 lsl 18)

let () =
  Alcotest.run "exact"
    [
      ( "engine-differential",
        [
          Alcotest.test_case
            "420 instances: bits, strategies, rationals, classes" `Slow
            test_differential;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "OPT non-increasing in d" `Quick
            test_monotone_in_d;
          Alcotest.test_case "OPT invariant under relabelling" `Quick
            test_relabelling_invariant;
          Alcotest.test_case "bandwidth cap monotone" `Quick
            test_bandwidth_monotone;
        ] );
      ( "bounded-work",
        [
          Alcotest.test_case "unguarded c=40 cancels in bounded memory"
            `Quick test_unguarded_cancel_bounded;
        ] );
    ]
