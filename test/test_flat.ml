(* Differential + GC-regression suite for the flat hot path (Flat).

   The flat cores are the only production path; the list-based
   solvers stay as the reference: every flat core must return the
   bit-identical expected paging and strategy on random and adversarial
   instances, across solver specs, objectives and domain counts. A
   golden digest taken from the list solvers and a rational-oracle pin
   (flat EPs against the exact arithmetic path to ≤ 1e-12·c) keep the
   two float paths from drifting together. The GC section asserts the
   zero-minor-words contract of the run_* cores. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -------------------- instance generators -------------------- *)

(* Adversarial shapes alongside the random ones: exact weight ties (the
   order comparator must fall back to the index), heavy skew (survivor
   products underflow toward 0), low-entropy grids (many equal
   probabilities, many DP ties), and the m = 1 / d = 1 / d = c edges. *)
let random_instance rng ~kind ~m ~c ~d =
  match kind mod 4 with
  | 0 -> Instance.random_uniform_simplex rng ~m ~c ~d
  | 1 -> Instance.random_zipf rng ~s:(1.1 +. Prob.Rng.unit_float rng) ~m ~c ~d
  | 2 ->
    (* all rows uniform: every cell weight is exactly equal *)
    let p = Array.make_matrix m c (1.0 /. float_of_int c) in
    Instance.create ~d p
  | _ ->
    (* coarse integer grid: lots of exact ties, exactly representable *)
    let p =
      Array.init m (fun _ ->
          let w = Array.init c (fun _ -> Prob.Rng.int rng 4) in
          if Array.for_all (fun x -> x = 0) w then w.(Prob.Rng.int rng c) <- 1;
          let s = float_of_int (Array.fold_left ( + ) 0 w) in
          Array.map (fun n -> float_of_int n /. s) w)
    in
    Instance.create ~d p

let random_dims rng =
  let m = 1 + Prob.Rng.int rng 5 in
  let c = 2 + Prob.Rng.int rng 12 in
  let d = 1 + Prob.Rng.int rng c in
  (m, c, d)

let objective_for rng ~m trial =
  match trial mod 3 with
  | 0 -> Objective.Find_all
  | 1 -> Objective.Find_any
  | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)

let random_order rng c =
  let order = Array.init c (fun j -> j) in
  for j = c - 1 downto 1 do
    let k = Prob.Rng.int rng (j + 1) in
    let t = order.(j) in
    order.(j) <- order.(k);
    order.(k) <- t
  done;
  order

let same_outcome what trial (reference : Solver.outcome)
    (flat : Solver.outcome) =
  if reference.Solver.expected_paging <> flat.Solver.expected_paging then
    Alcotest.failf "%s (trial %d): EP differs: reference %.17g flat %.17g"
      what trial reference.Solver.expected_paging flat.Solver.expected_paging;
  if not (Strategy.equal reference.Solver.strategy flat.Solver.strategy) then
    Alcotest.failf "%s (trial %d): strategies differ: reference %s flat %s"
      what trial
      (Strategy.to_string reference.Solver.strategy)
      (Strategy.to_string flat.Solver.strategy);
  if reference.Solver.exact <> flat.Solver.exact then
    Alcotest.failf "%s (trial %d): exact flag differs" what trial

(* -------------------- differential: solver specs -------------------- *)

(* A corpus entry: a solver spec with a flat core, or the Lemma 4.7 DP
   on a fixed cell order, which the yellow-pages planner runs through
   [Flat.order_dp] and no solver spec reaches. *)
type case = Spec of Solver.spec | Within_order of int array

let case_name = function
  | Spec spec -> Solver.spec_to_string spec
  | Within_order _ -> "within-order"

(* ≥ 200 instances (random + adversarial), each with its objective and
   the cases that have a flat core. Generated in one fixed rng sequence
   so the differential and the golden digest below see the same corpus.
   Production solves rebind this domain's one arena across all of them,
   so the cache-invalidation logic is exercised as hard as the
   numerics. *)
let spec_corpus () =
  let rng = Prob.Rng.create ~seed:0xF1A7 in
  List.init 240 (fun k ->
      let trial = k + 1 in
      let m, c, d = random_dims rng in
      let inst = random_instance rng ~kind:trial ~m ~c ~d in
      let objective = objective_for rng ~m trial in
      let cases =
        [
          Spec Solver.Greedy;
          Spec Solver.Page_all;
          Within_order (random_order rng c);
          Spec (Solver.Bandwidth_limited (1 + ((c + d - 1) / d)));
          Spec Solver.Local_search;
        ]
        @
        if trial mod 10 = 0 then
          [ Spec (Solver.Robust { eps = 0.05; tv = infinity }) ]
        else []
      in
      (trial, inst, objective, cases))

let of_dp exact (r : Strategy.solution) =
  {
    Solver.strategy = r.Strategy.strategy;
    expected_paging = r.Strategy.expected_paging;
    exact;
  }

(* The list cores are the reference implementation: what each spec
   answered before the flat arena became the only production path.
   Specs without a flat core go straight to [Solver.solve]. *)
let rec reference_outcome ~objective spec inst =
  let weight_order = Instance.weight_order inst in
  match spec with
  | Solver.Greedy ->
    of_dp
      (inst.Instance.m = 1 || inst.Instance.d = 1)
      (Order_dp.solve ~objective inst ~order:weight_order)
  | Solver.Page_all ->
    let strategy = Strategy.page_all inst.Instance.c in
    {
      Solver.strategy;
      expected_paging = Strategy.expected_paging ~objective inst strategy;
      exact = inst.Instance.d = 1;
    }
  | Solver.Bandwidth_limited b ->
    of_dp false
      (Order_dp.solve ~objective ~max_group:b inst ~order:weight_order)
  | Solver.Local_search ->
    let r, _ = Local_search.hill_climb ~objective inst in
    { r with Solver.exact = false }
  | Solver.Robust { eps; tv } ->
    (* The robust re-rank over reference candidates: lowest worst-case
       EP wins, ties go to the earlier candidate. *)
    let u = Uncertainty.uniform ~tv eps in
    let best = ref None in
    List.iter
      (fun cand ->
        match reference_outcome ~objective cand inst with
        | o ->
          let r = Uncertainty.robust_ep ~objective u inst o.Solver.strategy in
          (match !best with
           | Some (_, r') when r' <= r -> ()
           | _ -> best := Some (o, r))
        | exception Invalid_argument _ -> ())
      Solver.robust_candidates;
    (match !best with
     | Some (o, _) -> { o with Solver.exact = false }
     | None -> invalid_arg "reference: no robust candidate applies")
  | spec -> Solver.solve ~objective spec inst

let reference_case ~objective case inst =
  match case with
  | Spec spec -> reference_outcome ~objective spec inst
  | Within_order order -> of_dp false (Order_dp.solve ~objective inst ~order)

let production_case ~objective case inst =
  match case with
  | Spec spec -> Solver.solve ~objective spec inst
  | Within_order order ->
    of_dp false (Flat.order_dp ~objective (Flat.domain_arena ()) inst ~order)

let test_differential_specs () =
  List.iter
    (fun (trial, inst, objective, cases) ->
      List.iter
        (fun case ->
          same_outcome (case_name case) trial
            (reference_case ~objective case inst)
            (production_case ~objective case inst))
        cases)
    (spec_corpus ())

(* Golden pin over the same corpus: EP bits, strategy and exact flag of
   every case, plus the hill-climb iteration count, hashed. The value
   was taken from the list solvers before the flat arena became the
   only production path, so the reference and the flat cores cannot
   drift together unnoticed. *)
let corpus_digest ~solve ~climb_iterations =
  let b = Buffer.create 65536 in
  List.iter
    (fun (trial, inst, objective, cases) ->
      List.iter
        (fun case ->
          let o = solve ~objective case inst in
          Printf.bprintf b "%d %s %Lx %s %b\n" trial (case_name case)
            (Int64.bits_of_float o.Solver.expected_paging)
            (Strategy.to_string o.Solver.strategy)
            o.Solver.exact)
        cases;
      Printf.bprintf b "%d climb %d\n" trial (climb_iterations ~objective inst))
    (spec_corpus ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_corpus_digest = "f92310f5f914722b9216bdeb75eec91d"

let test_golden_digest () =
  let check_digest what digest =
    Alcotest.(check string) what golden_corpus_digest digest
  in
  check_digest "reference"
    (corpus_digest ~solve:reference_case
       ~climb_iterations:(fun ~objective inst ->
         snd (Local_search.hill_climb ~objective inst)));
  check_digest "production"
    (corpus_digest
       ~solve:production_case
       ~climb_iterations:(fun ~objective inst ->
         let arena = Flat.domain_arena () in
         ignore (Flat.hill_climb ~objective arena inst);
         Flat.iterations arena))

(* Local search must also agree on the iteration count: the flat climb
   claims to replay the legacy scan move for move. *)
let test_differential_hill_climb_iterations () =
  let rng = Prob.Rng.create ~seed:0x1C11 in
  let arena = Flat.create () in
  for trial = 1 to 40 do
    let m, c, d = random_dims rng in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let legacy, legacy_iters = Local_search.hill_climb ~objective inst in
    let flat = Flat.hill_climb ~objective arena inst in
    check int_t "iterations" legacy_iters (Flat.iterations arena);
    check bool_t "ep bits" true
      (legacy.Strategy.expected_paging = flat.Strategy.expected_paging);
    check bool_t "strategy" true
      (Strategy.equal legacy.Strategy.strategy flat.Strategy.strategy)
  done

(* The anytime contract the Runner relies on: a climb cancelled after
   poll k stops where it stands and returns its best-so-far. Both
   climbs poll once per move evaluation, so under the same cut they
   must return the same strategy, EP bits and iteration count, and
   that count is k whenever the cut falls before the natural end. *)
let test_differential_cancelled_climb () =
  let rng = Prob.Rng.create ~seed:0xCA7C in
  let arena = Flat.create () in
  let cut_after k =
    let polls = ref 0 in
    Cancel.of_probe ~every:1 (fun () ->
        incr polls;
        !polls > k)
  in
  for trial = 1 to 60 do
    let m, c, d = random_dims rng in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let full = snd (Local_search.hill_climb ~objective inst) in
    [ 0; 1; 2; full / 3; full / 2; full - 1; full ]
    |> List.filter (fun k -> k >= 0)
    |> List.sort_uniq compare
    |> List.iter (fun k ->
           let legacy, legacy_iters =
             Local_search.hill_climb ~objective ~cancel:(cut_after k) inst
           in
           let flat =
             Flat.hill_climb ~objective ~cancel:(cut_after k) arena inst
           in
           let what = Printf.sprintf "trial %d, cut after poll %d" trial k in
           check int_t (what ^ ": iterations") legacy_iters
             (Flat.iterations arena);
           check int_t (what ^ ": iterations = cut") (min k full)
             (Flat.iterations arena);
           check bool_t (what ^ ": ep bits") true
             (Int64.bits_of_float legacy.Strategy.expected_paging
             = Int64.bits_of_float flat.Strategy.expected_paging);
           check bool_t (what ^ ": strategy") true
             (Strategy.equal legacy.Strategy.strategy flat.Strategy.strategy))
  done

(* Coarse DP: block boundaries must not perturb the per-device mass
   chains — flat and legacy agree bitwise for every block size,
   including block = 1 (≡ the full DP). *)
let test_differential_coarse () =
  let rng = Prob.Rng.create ~seed:0xC0A2 in
  let arena = Flat.create () in
  let blocks = [| 1; 2; 3; 5; 16 |] in
  for trial = 1 to 60 do
    let m = 1 + Prob.Rng.int rng 4 in
    let c = 4 + Prob.Rng.int rng 30 in
    let d = 1 + Prob.Rng.int rng (min c 6) in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let block = blocks.(trial mod Array.length blocks) in
    let order = Instance.weight_order inst in
    let legacy = Order_dp.solve_coarse ~objective ~block inst ~order in
    let flat = Flat.greedy ~objective ~block arena inst in
    check bool_t "coarse ep bits" true
      (legacy.Strategy.expected_paging = flat.Strategy.expected_paging);
    check bool_t "coarse strategy" true
      (Strategy.equal legacy.Strategy.strategy flat.Strategy.strategy)
  done

(* Rational-oracle pin: the flat EP must sit within 1e-12·c of the
   exact-arithmetic evaluation of the same strategy — bit-identity with
   the legacy float path alone would be satisfied by two paths that are
   wrong together. *)
let test_rational_oracle_pin () =
  let rng = Prob.Rng.create ~seed:0x0A17 in
  let arena = Flat.create () in
  for trial = 1 to 60 do
    let m = 1 + Prob.Rng.int rng 3 in
    let c = 2 + Prob.Rng.int rng 8 in
    let d = 1 + Prob.Rng.int rng c in
    let rows_q =
      Array.init m (fun _ ->
          let w = Array.init c (fun _ -> Prob.Rng.int rng 20) in
          if Array.for_all (fun x -> x = 0) w then w.(Prob.Rng.int rng c) <- 1;
          let s = Array.fold_left ( + ) 0 w in
          Array.map (fun n -> Numeric.Rational.of_ints n s) w)
    in
    let exact = Instance.Exact.create ~d rows_q in
    let inst = Instance.Exact.to_float exact in
    let objective = objective_for rng ~m trial in
    List.iter
      (fun (what, r) ->
        let ep_exact =
          Numeric.Rational.to_float
            (Strategy.expected_paging_exact ~objective exact
               r.Strategy.strategy)
        in
        if
          abs_float (r.Strategy.expected_paging -. ep_exact)
          > 1e-12 *. float_of_int c
        then
          Alcotest.failf "%s (trial %d): flat EP %.17g vs exact %.17g" what
            trial r.Strategy.expected_paging ep_exact)
      [
        ("greedy", Flat.greedy ~objective arena inst);
        ("coarse", Flat.greedy ~objective ~block:3 arena inst);
        ( "within-order",
          Flat.order_dp ~objective arena inst ~order:(random_order rng c) );
      ]
  done

(* -------------------- differential: runner, domains 1 and 4 ------- *)

(* Every runner stage with a flat core must report the reference EP
   bit for bit, and a flat-core winner must be the reference outcome;
   the winner choice is a function of those EPs, so it matches the
   choice the list solvers would have led to. Odd trials run the
   default chain (first success wins); even trials run a chain of flat
   cores in uncertainty re-ranking mode, where every stage runs to its
   end. The sequential leg reuses one caller-supplied arena across
   instances; the raced leg (4 domains) runs each stage on its domain's
   own arena. *)
let has_flat_core = function
  | Solver.Greedy | Solver.Page_all | Solver.Bandwidth_limited _
  | Solver.Local_search | Solver.Robust _ ->
    true
  | _ -> false

let test_runner_differential_domains () =
  let rng = Prob.Rng.create ~seed:0x40FE in
  let arena = Flat.create () in
  let compare_one ?pool ?arena trial =
    let m, c, d = random_dims rng in
    let inst = random_instance rng ~kind:trial ~m ~c ~d in
    let objective = objective_for rng ~m trial in
    let report =
      if trial mod 2 = 1 then Runner.run ~objective ?pool ?arena inst
      else begin
        (* The fixed-order DP on the arena the run is about to reuse. *)
        let order = random_order rng c in
        same_outcome "within-order" trial
          (reference_case ~objective (Within_order order) inst)
          (of_dp false
             (Flat.order_dp ~objective
                (Option.value arena ~default:(Flat.domain_arena ()))
                inst ~order));
        Runner.run ~objective ?pool ?arena
          ~uncertainty:(Uncertainty.uniform 0.05)
          ~chain:
            Solver.
              [
                Local_search;
                Greedy;
                Bandwidth_limited (1 + ((c + d - 1) / d));
                Page_all;
              ]
          inst
      end
    in
    List.iter
      (fun (st : Runner.stage_report) ->
        match st.Runner.expected_paging with
        | Some ep when has_flat_core st.Runner.spec ->
          let r = reference_outcome ~objective st.Runner.spec inst in
          if ep <> r.Solver.expected_paging then
            Alcotest.failf "runner %s (trial %d): EP %.17g, reference %.17g"
              (Solver.spec_to_string st.Runner.spec)
              trial ep r.Solver.expected_paging
        | _ -> ())
      report.Runner.stages;
    match report.Runner.winner with
    | Some (spec, o) when has_flat_core spec ->
      same_outcome "runner winner" trial
        (reference_outcome ~objective spec inst)
        o
    | Some _ -> ()
    | None -> Alcotest.fail "runner produced no winner"
  in
  for trial = 1 to 12 do
    compare_one ~arena trial
  done;
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      for trial = 13 to 24 do
        compare_one ~pool trial
      done)

(* -------------------- GC regression -------------------- *)

let steady_instance () =
  let rng = Prob.Rng.create ~seed:0x6C60 in
  Instance.random_uniform_simplex rng ~m:6 ~c:48 ~d:5

let test_zero_alloc_cores () =
  let inst = steady_instance () in
  List.iter
    (fun (oname, objective) ->
      let arena = Flat.create () in
      Flat.prepare ~objective arena inst;
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_greedy[%s]" oname)
        (fun () -> Flat.run_greedy arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_order_dp[%s]" oname)
        (fun () -> Flat.run_order_dp ~max_group:12 arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_page_all[%s]" oname)
        (fun () -> Flat.run_page_all arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_hill_climb[%s]" oname)
        (fun () -> Flat.run_hill_climb arena);
      Flat.prepare ~objective ~block:8 arena inst;
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_greedy block 8[%s]" oname)
        (fun () -> Flat.run_greedy arena))
    [
      ("find-all", Objective.Find_all);
      ("find-any", Objective.Find_any);
      ("find-2", Objective.Find_at_least 2);
    ]

(* Rebinding the arena to another instance (prepare itself may allocate
   — it sorts and rebuilds tables) must not poison the cores: right
   after every rebind the run_* entry points are allocation-free
   again. *)
let test_zero_alloc_after_rebind () =
  let rng = Prob.Rng.create ~seed:0x2EB1 in
  let insts =
    Array.init 4 (fun k ->
        Instance.random_uniform_simplex rng ~m:(3 + k) ~c:(30 + (5 * k)) ~d:4)
  in
  let arena = Flat.create () in
  Array.iteri
    (fun k inst ->
      Flat.prepare arena inst;
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_greedy after rebind %d" k)
        (fun () -> Flat.run_greedy arena);
      Testutil.assert_no_minor_alloc
        (Printf.sprintf "run_hill_climb after rebind %d" k)
        (fun () -> Flat.run_hill_climb arena))
    insts

(* -------------------- boundary -------------------- *)

let test_named_dimension_errors () =
  let expect_msg what input fragment =
    match Instance.of_string input with
    | _ -> Alcotest.failf "%s: accepted a degenerate header" what
    | exception Invalid_argument msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      if not (contains msg fragment) then
        Alcotest.failf "%s: error %S does not name the axis (%S)" what msg
          fragment
  in
  expect_msg "m = 0" "0 4 2\n" "no devices";
  expect_msg "m < 0" "-3 4 2\n" "no devices";
  expect_msg "c = 0" "2 0 1\n" "no cells"

(* One arena table per granularity: a block switch on the same binding
   rebuilds it (the coarse and cell answers both stay the references'),
   the cores that need a cell table refuse a coarser one, and a block
   below 1 is named. *)
let test_block_switch () =
  let inst = steady_instance () in
  let order = Instance.weight_order inst in
  let arena = Flat.create () in
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s ran on a block-4 table" what
    | exception Invalid_argument msg ->
      check Alcotest.string what "Flat.run_order_dp: arena not prepared" msg
  in
  let coarse = Order_dp.solve_coarse ~block:4 inst ~order in
  let full = Order_dp.solve inst ~order in
  for _ = 1 to 2 do
    Flat.prepare ~block:4 arena inst;
    Flat.run_greedy arena;
    check bool_t "block 4 ep bits" true
      (Flat.ep arena = coarse.Strategy.expected_paging);
    refuses "run_order_dp" (fun () -> Flat.run_order_dp arena);
    refuses "run_hill_climb" (fun () -> Flat.run_hill_climb arena);
    Flat.prepare arena inst;
    Flat.run_greedy arena;
    check bool_t "block 1 ep bits" true
      (Flat.ep arena = full.Strategy.expected_paging)
  done;
  match Flat.prepare ~block:0 arena inst with
  | () -> Alcotest.fail "block 0 accepted"
  | exception Invalid_argument msg ->
    check Alcotest.string "block 0" "Flat.prepare: block must be >= 1, got 0"
      msg

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          Alcotest.test_case "solver specs, 240 instances" `Quick
            test_differential_specs;
          Alcotest.test_case "hill-climb iteration parity" `Quick
            test_differential_hill_climb_iterations;
          Alcotest.test_case "coarse DP all block sizes" `Quick
            test_differential_coarse;
          Alcotest.test_case "rational-oracle pin" `Quick
            test_rational_oracle_pin;
          Alcotest.test_case "runner, domains 1 and 4" `Quick
            test_runner_differential_domains;
          Alcotest.test_case "golden digest, 240 instances" `Quick
            test_golden_digest;
          Alcotest.test_case "cancelled hill climb at every cut" `Quick
            test_differential_cancelled_climb;
        ] );
      ( "gc-regression",
        [
          Alcotest.test_case "zero minor words per solve" `Quick
            test_zero_alloc_cores;
          Alcotest.test_case "zero minor words after rebind" `Quick
            test_zero_alloc_after_rebind;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "named m=0 / c=0 errors" `Quick
            test_named_dimension_errors;
          Alcotest.test_case "block switch and cell-table cores" `Quick
            test_block_switch;
        ] );
    ]
