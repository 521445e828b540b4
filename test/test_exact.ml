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
         (Int64.bits_of_float want.Strategy.expected_paging)
         (Int64.bits_of_float got.Strategy.expected_paging));
    check bool_t (name ^ ": same strategy") true
      (Strategy.equal want.Strategy.strategy got.Strategy.strategy);
    if max_group = None then begin
      let cls = Class_solver.solve ~objective inst in
      let ref_ep = want.Strategy.expected_paging in
      check bool_t (name ^ ": class solver EP") true
        (Float.abs (cls.Strategy.expected_paging -. ref_ep)
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
                cls.Strategy.strategy))
      | _ -> ()
    end
  done;
  check bool_t "exact rationals checked on dyadic instances" true
    (!exact_checked >= 15)

(* ---------------- exact answers beyond dyadics ---------------- *)

(* [exhaustive_exact] searches in floats on the correctly rounded rows
   and scores near chains in rationals. These rows are not exact in
   floats: small denominators (many exact ties), 4-digit denominators,
   multi-limb entries, the §4.3 instance and Partition → QP1 reductions. *)

(* [units] units spread over c cells, each row in multiples of 1/units. *)
let unit_rows rng ~m ~c ~units =
  Array.init m (fun _ ->
      let row = Array.make c 0 in
      for _ = 1 to units do
        let j = Prob.Rng.int rng c in
        row.(j) <- row.(j) + 1
      done;
      Array.map (fun u -> Q.of_ints u units) row)

(* Rows w_j / Σ w with w_j of one or two 30-bit limbs, some zero. *)
let multi_limb_rows rng ~m ~c =
  let module B = Numeric.Bigint in
  let limb () = B.of_int (Prob.Rng.int rng (1 lsl 30)) in
  let weight () =
    match Prob.Rng.int rng 5 with
    | 0 -> B.zero
    | 1 | 2 -> limb ()
    | _ -> B.add (B.mul (limb ()) (B.pow B.two 30)) (limb ())
  in
  Array.init m (fun _ ->
      let w = Array.init c (fun _ -> weight ()) in
      let j = Prob.Rng.int rng c in
      w.(j) <- B.add w.(j) B.one;
      let total = Array.fold_left B.add B.zero w in
      Array.map (fun x -> Q.make x total) w)

let same_exact_answer name ?objective ex =
  let ws, wep = Exhaustive_ref.exhaustive_exact ?objective ex in
  let gs, gep = Optimal.exhaustive_exact ?objective ex in
  check bool_t (name ^ ": exact EP") true (Q.equal wep gep);
  check bool_t (name ^ ": exact strategy") true (Strategy.equal ws gs)

let test_exact_beyond_dyadics () =
  let rng = Prob.Rng.create ~seed:2507 in
  let families = [| "small-den"; "4-digit"; "multi-limb" |] in
  (* sized so the reference's bignum scoring of dᶜ labellings stays cheap *)
  for case = 0 to 44 do
    let family = families.(case mod 3) in
    let small = family = "small-den" and multi = family = "multi-limb" in
    let d = if multi then 2 else 2 + Prob.Rng.int rng 2 in
    let spread = if multi || d = 3 then 4 else if small then 8 else 6 in
    let c = 2 + Prob.Rng.int rng spread in
    let d = min d c and m = 1 + Prob.Rng.int rng (if small then 3 else 2) in
    let rows =
      match family with
      | "small-den" -> unit_rows rng ~m ~c ~units:(3 + Prob.Rng.int rng 10)
      | "4-digit" -> unit_rows rng ~m ~c ~units:(1000 + Prob.Rng.int rng 9000)
      | _ -> multi_limb_rows rng ~m ~c
    in
    let objective = objective_of rng m in
    same_exact_answer ~objective
      (Printf.sprintf "case %d (%s m=%d c=%d d=%d %s)" case family m c d
         (Objective.to_string objective))
      (Instance.Exact.create ~d rows)
  done;
  let s = Q.of_ints 1 7 and z = Q.zero in
  let section_4_3 =
    Instance.Exact.create ~d:2
      [| [| Q.of_ints 2 7; s; s; s; s; s; z; z |];
         [| z; s; s; s; s; s; s; s |] |]
  in
  same_exact_answer "§4.3 instance" section_4_3;
  check bool_t "§4.3 optimum is 317/49" true
    (Q.equal (snd (Optimal.exhaustive_exact section_4_3)) (Q.of_ints 317 49));
  List.iter
    (fun sizes ->
      let qp1 = Hardness.partition_to_qp1 sizes in
      same_exact_answer
        (Printf.sprintf "Partition [%s] -> QP1"
           (String.concat "; " (Array.to_list (Array.map string_of_int sizes))))
        (Hardness.qp1_to_conference qp1))
    [ [| 1; 1 |]; [| 1; 2 |]; [| 5; 5 |]; [| 3; 7 |] ]

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
          (Bandwidth.exhaustive ~objective inst ~b).Strategy.strategy
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

(* Merging rounds r and r + 1 of a strategy into one never lowers its
   exact EP: every outcome pages the cells it paged before, plus round
   r + 1's cells when round r already found enough devices. Checked for
   every adjacent pair of the exact optimum and of seeded random
   strategies. *)
let merge_adjacent groups r =
  Array.concat
    [ Array.sub groups 0 r;
      [| Array.append groups.(r) groups.(r + 1) |];
      Array.sub groups (r + 2) (Array.length groups - r - 2) ]

let check_merges ~objective ex name strategy =
  let ep = Strategy.expected_paging_exact ~objective ex strategy in
  let groups = Strategy.groups strategy in
  for r = 0 to Array.length groups - 2 do
    let merged = Strategy.create (merge_adjacent groups r) in
    check bool_t
      (Printf.sprintf "%s: merging rounds %d and %d" name r (r + 1))
      true
      (Q.compare (Strategy.expected_paging_exact ~objective ex merged) ep >= 0)
  done

let test_merge_never_lowers () =
  List.iter
    (fun (rng, rows, objective) ->
      let c = Array.length rows.(0) in
      let ex = Instance.Exact.create ~d:c rows in
      check_merges ~objective ex
        (Printf.sprintf "c=%d optimum" c)
        (fst (Optimal.exhaustive_exact ~objective ex));
      for trial = 1 to 5 do
        (* a random order of the cells, cut into 1 to c non-empty rounds *)
        let order = shuffle rng (Array.init c Fun.id) in
        let cut _ = 1 + Prob.Rng.int rng (c - 1) in
        let cuts = List.sort_uniq compare (List.init (Prob.Rng.int rng c) cut) in
        let bounds = Array.of_list ((0 :: cuts) @ [ c ]) in
        let groups =
          Array.init (Array.length bounds - 1) (fun r ->
              Array.sub order bounds.(r) (bounds.(r + 1) - bounds.(r)))
        in
        check_merges ~objective ex
          (Printf.sprintf "c=%d random strategy %d" c trial)
          (Strategy.create groups)
      done)
    (dyadic_instances ())

(* Argmin monotonicity of the Fig. 1 recurrence (Lemma 4.7). Counted
   unconditionally, a group paging order positions t .. s-1 costs
   w(t, s) = (1 - F(t))·(s - t), and w satisfies the quadrangle
   inequality because 1 - F is non-increasing. So the leftmost optimal
   cut moves right as t does: for every round count l, the remainder
   k - v_l(k) left after the first group is non-decreasing over the
   feasible k. The recurrence is [Order_dp.solve_with_prefix_success]'s
   (the same v range, the same strict [<], so the same leftmost argmin),
   evaluated in rationals on small integer-weight rows with ties, zero
   columns, point-mass devices and prefixes whose success reaches 1,
   over the weight order and random orders, with and without a
   bandwidth cap. The traced cut's exact EP must equal the recurrence's
   optimum, which pins the rational recurrence itself. A bound between
   rounds, v_l(k) <= v_(l-1)(k), is deliberately not asserted: float
   scans of generated rows break it, so no faster scan may rely on
   it. *)
let integer_rows rng ~m ~c =
  let zero_col = Array.init c (fun _ -> Prob.Rng.int rng 4 = 0) in
  if Array.for_all Fun.id zero_col then zero_col.(Prob.Rng.int rng c) <- false;
  let live =
    Array.of_list (List.filter (fun j -> not zero_col.(j)) (List.init c Fun.id))
  in
  let any_live () = live.(Prob.Rng.int rng (Array.length live)) in
  Array.init m (fun _ ->
      let w =
        if Prob.Rng.int rng 4 = 0 then begin
          let w = Array.make c 0 in
          w.(any_live ()) <- 1;
          w
        end
        else
          Array.init c (fun j -> if zero_col.(j) then 0 else Prob.Rng.int rng 3)
      in
      if Array.for_all (fun n -> n = 0) w then w.(any_live ()) <- 1;
      let total = Array.fold_left ( + ) 0 w in
      Array.map (fun n -> Q.of_ints n total) w)

(* e.(l).(k) and the leftmost minimising first-group size x.(l).(k);
   [None] is the float DP's infinity (no feasible strategy). *)
let rational_recurrence ~objective (ex : Instance.Exact.t) ~order ~b =
  let m = ex.Instance.Exact.m and c = ex.Instance.Exact.c in
  let d = ex.Instance.Exact.d in
  let masses = Array.make m Q.zero in
  let f = Array.make (c + 1) (Objective.success_exact objective masses) in
  for j = 1 to c do
    for i = 0 to m - 1 do
      masses.(i) <- Q.add masses.(i) ex.Instance.Exact.p.(i).(order.(j - 1))
    done;
    f.(j) <- Objective.success_exact objective masses
  done;
  let e = Array.make_matrix (d + 1) (c + 1) None in
  let x = Array.make_matrix (d + 1) (c + 1) 0 in
  for k = 1 to min c b do
    e.(1).(k) <- Some (Q.of_int k);
    x.(1).(k) <- k
  done;
  for l = 2 to d do
    for k = l to c do
      let tail_start = c - k in
      let denom = Q.sub Q.one f.(tail_start) in
      for v = max 1 (k - (b * (l - 1))) to min b (k - l + 1) do
        match e.(l - 1).(k - v) with
        | None -> ()
        | Some rest ->
          let cont =
            if Q.sign denom <= 0 then Q.zero
            else Q.div (Q.sub Q.one f.(tail_start + v)) denom
          in
          let cost = Q.add (Q.of_int v) (Q.mul cont rest) in
          (match e.(l).(k) with
           | Some best when Q.compare cost best >= 0 -> ()
           | _ ->
             e.(l).(k) <- Some cost;
             x.(l).(k) <- v)
      done
    done
  done;
  (e, x)

let test_argmin_monotone () =
  let rng = Prob.Rng.create ~seed:2507 in
  for trial = 0 to 239 do
    let m = 1 + Prob.Rng.int rng 3 in
    let c = 2 + Prob.Rng.int rng 9 in
    let d = 1 + Prob.Rng.int rng c in
    let ex = Instance.Exact.create ~d (integer_rows rng ~m ~c) in
    let objective =
      match trial mod 3 with
      | 0 -> Objective.Find_all
      | 1 -> Objective.Find_any
      | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)
    in
    let b =
      if trial / 3 mod 2 = 0 then c
      else Prob.Rng.int_range rng ((c + d - 1) / d) c
    in
    let order =
      if trial / 6 mod 2 = 0 then Instance.Exact.weight_order ex
      else shuffle rng (Array.init c Fun.id)
    in
    let e, x = rational_recurrence ~objective ex ~order ~b in
    let name =
      Printf.sprintf "trial %d (m=%d c=%d d=%d b=%d %s)" trial m c d b
        (Objective.to_string objective)
    in
    for l = 1 to d do
      let prev = ref (-1) in
      for k = l to c do
        if e.(l).(k) <> None then begin
          let rest = k - x.(l).(k) in
          if rest < !prev then
            Alcotest.failf "%s: l=%d: remainder %d at k=%d after %d at k-1"
              name l rest k !prev;
          prev := rest
        end
      done
    done;
    let sizes = Array.make d 0 and k = ref c in
    for l = d downto 1 do
      sizes.(d - l) <- x.(l).(!k);
      k := !k - x.(l).(!k)
    done;
    let ep =
      Strategy.expected_paging_exact ~objective ex
        (Strategy.of_sizes ~order ~sizes)
    in
    check bool_t (name ^ ": traced cut's exact EP is the optimum") true
      (match e.(d).(c) with Some opt -> Q.equal opt ep | None -> false)
  done

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

(* The float search allocates its set-up and its memo (one float array,
   straight to the major heap) and nothing per step: an unguarded m = 3,
   c = 18, d = 3 search cancelled after 200 000 polls stays under 2¹⁴
   minor words. A search that boxes its arithmetic allocates tens of
   words a poll. *)
let test_unguarded_cancel_minor_words () =
  let rng = Prob.Rng.create ~seed:18 in
  let inst = Instance.random_uniform_simplex rng ~m:3 ~c:18 ~d:3 in
  let polls = ref 0 in
  let cancel =
    Cancel.of_probe ~every:1 (fun () ->
        incr polls;
        !polls > 200_000)
  in
  let before = Gc.minor_words () in
  (match Optimal.exhaustive ~guard:false ~cancel inst with
   | _ -> Alcotest.fail "an unguarded c = 18 search finished"
   | exception Cancel.Cancelled -> ());
  let words = Gc.minor_words () -. before in
  check bool_t "fired after 200 000 polls" true (!polls = 200_001);
  check bool_t
    (Printf.sprintf "%.0f minor words < 2^14" words)
    true
    (words < 16384.0)

let () =
  Alcotest.run "exact"
    [
      ( "engine-differential",
        [
          Alcotest.test_case
            "420 instances: bits, strategies, rationals, classes" `Slow
            test_differential;
          Alcotest.test_case
            "exact beyond dyadics: small and 4-digit denominators, multi-limb, \
             §4.3, QP1" `Quick test_exact_beyond_dyadics;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "OPT non-increasing in d" `Quick
            test_monotone_in_d;
          Alcotest.test_case "OPT invariant under relabelling" `Quick
            test_relabelling_invariant;
          Alcotest.test_case "bandwidth cap monotone" `Quick
            test_bandwidth_monotone;
          Alcotest.test_case "merging adjacent rounds never lowers EP" `Quick
            test_merge_never_lowers;
          Alcotest.test_case "Fig. 1 recurrence: leftmost argmin monotone"
            `Quick test_argmin_monotone;
        ] );
      ( "bounded-work",
        [
          Alcotest.test_case "unguarded c=40 cancels in bounded memory"
            `Quick test_unguarded_cancel_bounded;
          Alcotest.test_case "unguarded c=18 search allocates its memo only"
            `Quick test_unguarded_cancel_minor_words;
        ] );
    ]
