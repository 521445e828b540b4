(* Tests for the deadline-budgeted runtime: Cancel tokens, the Runner's
   fallback chains and error taxonomy, and the crash-safe Journal. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let qt = QCheck_alcotest.to_alcotest

(* A deterministic clock: returns the current reading, then advances by
   [step] seconds. Makes timeout paths reproducible. *)
let stepping_clock ~step =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := !t +. step;
    v

(* -------------------- Cancel -------------------- *)

let test_cancel_never () =
  for _ = 1 to 1000 do
    check bool_t "never fires" false (Cancel.poll Cancel.never)
  done;
  check bool_t "not cancelled" false (Cancel.cancelled Cancel.never)

(* [never] is shared by every unbudgeted solve on every domain: two
   domains polling it a million times each see it unfired throughout. *)
let test_cancel_never_domains () =
  let polls () =
    let fired = ref 0 in
    for _ = 1 to 1_000_000 do
      if Cancel.poll Cancel.never then incr fired
    done;
    !fired
  in
  let domains = List.init 2 (fun _ -> Domain.spawn polls) in
  List.iter
    (fun d -> check int_t "polls that fired" 0 (Domain.join d))
    domains;
  check bool_t "not cancelled" false (Cancel.cancelled Cancel.never)

let test_cancel_every_validation () =
  (match Cancel.of_probe ~every:0 (fun () -> true) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "every=0 accepted");
  match Cancel.of_probe ~every:(-3) (fun () -> true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative every accepted"

let test_cancel_probe_amortized () =
  let probes = ref 0 in
  let t =
    Cancel.of_probe ~every:4 (fun () ->
        incr probes;
        false)
  in
  for _ = 1 to 12 do
    ignore (Cancel.poll t)
  done;
  check int_t "probe every 4th poll" 3 !probes

let test_cancel_fires_and_latches () =
  let armed = ref false in
  let t = Cancel.of_probe ~every:1 (fun () -> !armed) in
  check bool_t "not fired yet" false (Cancel.poll t);
  armed := true;
  check bool_t "fires" true (Cancel.poll t);
  (* latched: stays fired even if the probe would now say no *)
  armed := false;
  check bool_t "latched" true (Cancel.poll t);
  check bool_t "cancelled" true (Cancel.cancelled t);
  match Cancel.check t with
  | exception Cancel.Cancelled -> ()
  | () -> Alcotest.fail "check did not raise after firing"

let test_cancel_deadline_with_clock () =
  let clock = stepping_clock ~step:0.010 in
  (* deadline at t = 0.015: polls observe 0.000, 0.010, 0.020... *)
  let t = Cancel.deadline ~every:1 ~clock 0.015 in
  check bool_t "before deadline" false (Cancel.poll t);
  check bool_t "still before" false (Cancel.poll t);
  check bool_t "past deadline" true (Cancel.poll t)

let test_cancel_now_monotone () =
  let a = Obs.now () in
  let b = Obs.now () in
  check bool_t "clock never runs backwards" true (b >= a)

(* -------------------- Runner -------------------- *)

let big_instance () =
  let rng = Prob.Rng.create ~seed:60 in
  Instance.random_uniform_simplex rng ~m:3 ~c:60 ~d:4

let small_instance () =
  Instance.create ~d:2 [| [| 0.5; 0.3; 0.2 |]; [| 0.1; 0.1; 0.8 |] |]

(* The acceptance scenario: c = 60 under a 50 ms budget. The exact stage
   must be recorded as the timed-out stage by name, a heuristic must win,
   and the whole run must finish within budget + grace (plus scheduling
   slack for loaded CI machines). *)
let test_runner_timeout_names_stage () =
  let inst = big_instance () in
  let t0 = Obs.now () in
  let report = Runner.run ~budget_ms:50.0 inst in
  let wall_ms = (Obs.now () -. t0) *. 1000.0 in
  let timed_out =
    List.filter_map
      (fun (s : Runner.stage_report) ->
        match s.Runner.status with
        | Runner.Failed Runner.Timeout ->
          Some (Solver.spec_to_string s.Runner.spec)
        | _ -> None)
      report.Runner.stages
  in
  check bool_t "exact stage named as timed out" true
    (List.mem "exact" timed_out);
  (match report.Runner.winner with
   | Some ((Solver.Greedy | Solver.Local_search), _) -> ()
   | Some (spec, _) ->
     Alcotest.failf "expected a heuristic winner, got %s"
       (Solver.spec_to_string spec)
   | None -> Alcotest.fail "no winner");
  check bool_t
    (Printf.sprintf "within budget+grace (wall %.1f ms)" wall_ms)
    true
    (wall_ms <= 50.0 +. 100.0 +. 250.0)

(* Deterministic timeout path on a stepping clock: every clock reading
   advances 2 ms, so the 10 ms budget dies during the exact stage's
   enumeration, the other expensive stages are skipped, and greedy (an
   always-fast stage) wins inside the grace window. *)
let test_runner_fallback_deterministic () =
  let clock = stepping_clock ~step:0.002 in
  let inst =
    let rng = Prob.Rng.create ~seed:7 in
    Instance.random_uniform_simplex rng ~m:2 ~c:20 ~d:3
  in
  let report = Runner.run ~budget_ms:10.0 ~clock inst in
  let statuses =
    List.map
      (fun (s : Runner.stage_report) ->
        (Solver.spec_to_string s.Runner.spec, s.Runner.status))
      report.Runner.stages
  in
  check bool_t "exact timed out" true
    (List.assoc "exact" statuses = Runner.Failed Runner.Timeout);
  check bool_t "bnb skipped after deadline" true
    (List.assoc "bnb" statuses = Runner.Failed Runner.Timeout);
  check bool_t "local-search skipped after deadline" true
    (List.assoc "local-search" statuses = Runner.Failed Runner.Timeout);
  (match report.Runner.winner with
   | Some (Solver.Greedy, o) ->
     check (Alcotest.float 1e-9) "winner EP consistent" o.Solver.expected_paging
       (Strategy.expected_paging inst o.Solver.strategy)
   | _ -> Alcotest.fail "greedy should win on the stepping clock")

let test_runner_no_budget_keeps_guards () =
  let inst = big_instance () in
  let report = Runner.run inst in
  (* without a deadline the exact methods stay guarded: Inapplicable,
     not a multi-hour enumeration *)
  (match (List.hd report.Runner.stages).Runner.status with
   | Runner.Failed (Runner.Inapplicable _) -> ()
   | s ->
     Alcotest.failf "expected Inapplicable, got %s"
       (Runner.stage_status_to_string s));
  check bool_t "has winner" true (report.Runner.winner <> None)

let test_runner_invalid_objective () =
  let inst = small_instance () in
  let report = Runner.run ~objective:(Objective.Find_at_least 5) inst in
  check bool_t "no winner" true (report.Runner.winner = None);
  match report.Runner.failure with
  | Some (Runner.Invalid_input _) -> ()
  | f ->
    Alcotest.failf "expected Invalid_input, got %s"
      (match f with
       | Some e -> Runner.error_to_string e
       | None -> "none")

(* A budget must be positive and finite: infinity or nan would arm a
   deadline that never fires, so the run stops at the input check and
   no stage runs. *)
let test_runner_invalid_budget () =
  let inst = small_instance () in
  List.iter
    (fun b ->
      let report = Runner.run ~budget_ms:b inst in
      let what = Printf.sprintf "budget %g" b in
      check bool_t (what ^ ": no winner") true (report.Runner.winner = None);
      check int_t (what ^ ": no stage ran") 0 (List.length report.Runner.stages);
      match report.Runner.failure with
      | Some (Runner.Invalid_input msg) ->
        check bool_t (what ^ ": names the budget") true
          (String.starts_with ~prefix:"budget_ms" msg)
      | f ->
        Alcotest.failf "%s: expected Invalid_input, got %s" what
          (match f with Some e -> Runner.error_to_string e | None -> "none"))
    [ infinity; nan; 0.0; -1.0 ];
  check bool_t "a finite positive budget passes" true
    (Runner.validate ~budget_ms:1.0 ~m:2 () = Ok ());
  check bool_t "the objective error names the field" true
    (Runner.validate ~objective:(Objective.Find_at_least 5) ~m:2 ()
     = Error "objective: Find_at_least k requires 1 <= k <= m")

let test_runner_exact_wins_small () =
  let inst = small_instance () in
  let report = Runner.run ~budget_ms:5000.0 inst in
  match report.Runner.winner with
  | Some (spec, o) ->
    check bool_t "winner is exact" true o.Solver.exact;
    check bool_t "first stage won" true (spec = List.hd report.Runner.chain);
    (match report.Runner.quality with
     | Some q ->
       check bool_t "within e/(e-1) of the lower bound" true
         q.Runner.within_guarantee
     | None -> Alcotest.fail "no quality block")
  | None -> Alcotest.fail "no winner"

let test_runner_baseline_appended () =
  let inst = small_instance () in
  let report = Runner.run ~chain:[ Solver.Branch_and_bound ] inst in
  check bool_t "page-all appended" true
    (List.mem Solver.Page_all report.Runner.chain);
  check bool_t "winner exists" true (report.Runner.winner <> None)

let test_chain_of_string () =
  (match Runner.chain_of_string "default" with
   | Ok chain ->
     check string_t "default chain" "exact,bnb,local-search,greedy,page-all"
       (Runner.chain_to_string chain)
   | Error e -> Alcotest.fail e);
  (match Runner.chain_of_string "bnb, local-search ,page-all" with
   | Ok chain -> check int_t "three stages" 3 (List.length chain)
   | Error e -> Alcotest.fail e);
  (match Runner.chain_of_string "greedy,bogus" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bogus chain accepted");
  match Runner.chain_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty chain accepted"

let test_runner_solve_result () =
  let inst = small_instance () in
  (match Runner.solve inst with
   | Ok o ->
     check bool_t "valid strategy" true
       (Strategy.validate ~c:inst.Instance.c o.Solver.strategy = Ok ())
   | Error e -> Alcotest.fail (Runner.error_to_string e));
  match Runner.solve ~objective:(Objective.Find_at_least 9) inst with
  | Error (Runner.Invalid_input _) -> ()
  | _ -> Alcotest.fail "expected Invalid_input"

(* Satellite: every fallback chain built from basic_specs returns a
   strategy that partitions the cells, respects d, and never pages more
   than the Page_all baseline in expectation — under Find_all and
   Find_at_least, with and without a tight budget. *)
let prop_chains_never_regress_below_page_all =
  QCheck.Test.make ~name:"fallback chains: valid strategy, EP <= page-all"
    ~count:120
    (QCheck.quad (QCheck.int_range 1 3) (QCheck.int_range 2 10)
       (QCheck.int_range 1 4) (QCheck.int_range 0 1_000_000))
    (fun (m, c, d, seed) ->
      QCheck.assume (d <= c);
      let rng = Prob.Rng.create ~seed in
      let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
      let k = 1 + Prob.Rng.int rng m in
      let objectives = [ Objective.Find_all; Objective.Find_at_least k ] in
      (* a random non-empty chain over the basic specs *)
      let specs = Array.of_list Solver.basic_specs in
      let len = 1 + Prob.Rng.int rng (Array.length specs) in
      let chain =
        List.init len (fun _ -> specs.(Prob.Rng.int rng (Array.length specs)))
      in
      let budget_ms =
        if Prob.Rng.int rng 2 = 0 then None else Some 5.0
      in
      List.for_all
        (fun objective ->
          let report = Runner.run ~objective ?budget_ms ~chain inst in
          match report.Runner.winner with
          | None -> false
          | Some (_, o) ->
            let page_all_ep =
              (Solver.solve ~objective Solver.Page_all inst)
                .Solver.expected_paging
            in
            Strategy.validate ~c o.Solver.strategy = Ok ()
            && Array.length (Strategy.groups o.Solver.strategy) <= d
            && o.Solver.expected_paging <= page_all_ep +. 1e-9)
        objectives)

(* -------------------- uncertainty-aware runs -------------------- *)

let test_runner_uncertainty_reranks () =
  let inst = Instance.all_uniform ~m:2 ~c:12 ~d:3 in
  let u = Uncertainty.uniform 0.02 in
  let report = Runner.run ~uncertainty:u inst in
  (* Every scored stage carries its worst-case EP, at or above nominal. *)
  List.iter
    (fun (s : Runner.stage_report) ->
      match (s.Runner.expected_paging, s.Runner.robust_ep) with
      | Some ep, Some rep ->
        check bool_t "worst-case >= nominal" true (rep >= ep -. 1e-9)
      | Some _, None -> Alcotest.fail "scored stage missing robust_ep"
      | None, _ -> ())
    report.Runner.stages;
  match (report.Runner.winner, report.Runner.robust) with
  | Some (_, o), Some rb ->
    (* The winner is the stage with the least worst-case EP, and its
       certificate brackets its nominal EP. *)
    List.iter
      (fun (s : Runner.stage_report) ->
        match s.Runner.robust_ep with
        | Some rep ->
          check bool_t "winner minimizes robust EP" true
            (rb.Runner.winner_robust_ep <= rep +. 1e-9)
        | None -> ())
      report.Runner.stages;
    check bool_t "bounds bracket nominal" true
      (rb.Runner.winner_bounds.Uncertainty.lo
         <= o.Solver.expected_paging +. 1e-9
      && o.Solver.expected_paging
         <= rb.Runner.winner_bounds.Uncertainty.hi +. 1e-9);
    check bool_t "worst case within upper bound" true
      (rb.Runner.winner_robust_ep
       <= rb.Runner.winner_bounds.Uncertainty.hi +. 1e-9)
  | _ -> Alcotest.fail "uncertainty-aware run produced no certified winner"

let test_solver_robust_spec () =
  let inst = Instance.all_uniform ~m:2 ~c:10 ~d:2 in
  let o = Solver.solve (Solver.Robust { eps = 0.05; tv = infinity }) inst in
  check bool_t "robust outcome is not marked exact" false o.Solver.exact;
  (* The robust pick minimizes worst-case EP among its candidates. *)
  let u = Uncertainty.uniform 0.05 in
  let worst = Uncertainty.robust_ep u inst o.Solver.strategy in
  List.iter
    (fun spec ->
      match Solver.solve spec inst with
      | cand ->
        check bool_t "beats candidate on worst case" true
          (worst <= Uncertainty.robust_ep u inst cand.Solver.strategy +. 1e-9)
      | exception Invalid_argument _ -> ())
    Solver.robust_candidates;
  (* Spec parsing roundtrips and validates. *)
  (match Solver.spec_of_string "robust-0.05" with
   | Ok (Solver.Robust { eps; tv }) ->
     check (Alcotest.float 1e-12) "eps parsed" 0.05 eps;
     check bool_t "tv defaults to unlimited" true (tv = infinity)
   | _ -> Alcotest.fail "robust-0.05 did not parse");
  (match Solver.spec_of_string "robust-0.1:0.2" with
   | Ok (Solver.Robust { eps; tv }) ->
     check (Alcotest.float 1e-12) "eps parsed" 0.1 eps;
     check (Alcotest.float 1e-12) "tv parsed" 0.2 tv
   | _ -> Alcotest.fail "robust-0.1:0.2 did not parse");
  (match Solver.spec_of_string "robust-1.5" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "eps > 1 accepted");
  match Solver.spec_of_string (Solver.spec_to_string (Solver.Robust { eps = 0.07; tv = 0.3 })) with
  | Ok (Solver.Robust { eps; tv }) ->
    check (Alcotest.float 1e-12) "roundtrip eps" 0.07 eps;
    check (Alcotest.float 1e-12) "roundtrip tv" 0.3 tv
  | _ -> Alcotest.fail "robust spec did not roundtrip"

(* -------------------- Journal -------------------- *)

let temp_journal () =
  let path = Filename.temp_file "confcall_test" ".journal" in
  Sys.remove path;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_journal_roundtrip () =
  let path = temp_journal () in
  let j = Journal.load_or_create path in
  check int_t "fresh journal empty" 0 (Journal.count j);
  Journal.record j ~id:"a" ~payload:"1";
  Journal.record j ~id:"b" ~payload:"2";
  check bool_t "a completed" true (Journal.completed j "a");
  check bool_t "c not completed" false (Journal.completed j "c");
  Journal.close j;
  let j2 = Journal.load_or_create path in
  check int_t "reloaded" 2 (Journal.count j2);
  check bool_t "entries in file order" true
    (Journal.entries j2 = [ ("a", "1"); ("b", "2") ]);
  Journal.close j2;
  Sys.remove path

let test_journal_truncates_partial_line () =
  let path = temp_journal () in
  (* simulate a crash mid-write: last line has no newline *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "a\t1\nb\t2\nc\tpartial-garbag");
  let j = Journal.load_or_create path in
  check int_t "partial line dropped" 2 (Journal.count j);
  check bool_t "c must be redone" false (Journal.completed j "c");
  Journal.record j ~id:"c" ~payload:"3";
  Journal.close j;
  (* Legacy lines survive verbatim; the repair appends in the
     checksummed format. *)
  check string_t "file repaired byte-exactly"
    "a\t1\nb\t2\nc\t3\tcrc:dbc27634\n"
    (read_file path);
  Sys.remove path

let test_journal_fsync_torn_tail () =
  (* fsync mode changes durability, not the format: records written
     with ~fsync:true read back identically, and a torn final line is
     still repaired on reload (the fsync covers whole appends, so a
     tear can only be the unflushed last write of a crash). *)
  let path = temp_journal () in
  let j = Journal.load_or_create ~fsync:true path in
  Journal.record j ~id:"a" ~payload:"1";
  Journal.record j ~id:"b" ~payload:"2";
  Journal.close j;
  check string_t "fsync writes the checksummed format"
    "a\t1\tcrc:3648c376\nb\t2\tcrc:ad072c95\n"
    (read_file path);
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "c\ttorn-by-pow";
  close_out oc;
  let j2 = Journal.load_or_create ~fsync:true path in
  check int_t "torn tail dropped under fsync" 2 (Journal.count j2);
  check bool_t "synced records intact" true
    (Journal.entries j2 = [ ("a", "1"); ("b", "2") ]);
  Journal.record j2 ~id:"c" ~payload:"3";
  Journal.close j2;
  check string_t "repaired byte-exactly"
    "a\t1\tcrc:3648c376\nb\t2\tcrc:ad072c95\nc\t3\tcrc:dbc27634\n"
    (read_file path);
  Sys.remove path

let test_journal_rejects_bad_input () =
  let path = temp_journal () in
  let j = Journal.load_or_create path in
  Journal.record j ~id:"x" ~payload:"1";
  let expect name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" name
  in
  expect "duplicate id" (fun () -> Journal.record j ~id:"x" ~payload:"2");
  expect "empty id" (fun () -> Journal.record j ~id:"" ~payload:"2");
  expect "tab in id" (fun () -> Journal.record j ~id:"a\tb" ~payload:"2");
  expect "newline in payload" (fun () ->
      Journal.record j ~id:"y" ~payload:"2\n3");
  Journal.close j;
  Sys.remove path

let test_journal_duplicate_ids () =
  (* A duplicate id among intact records is corruption, not a crash
     artifact: load must refuse and name the offender. *)
  let path = temp_journal () in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "a\t1\nb\t2\na\t3\n");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Journal.load_or_create path with
   | exception Invalid_argument msg ->
     check bool_t "names the duplicate id" true (contains msg {|duplicate id "a"|})
   | j ->
     Journal.close j;
     Alcotest.fail "duplicate id accepted");
  Sys.remove path;
  (* Interaction with crash repair: a duplicate only inside the torn
     final line is dropped with the torn line, not reported. *)
  let path = temp_journal () in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "a\t1\nb\t2\na\tpartial-garbag");
  let j = Journal.load_or_create path in
  check int_t "torn duplicate dropped" 2 (Journal.count j);
  Journal.close j;
  Sys.remove path;
  (* ... but a duplicate among intact records still trips even when the
     tail is torn. *)
  let path = temp_journal () in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "a\t1\na\t2\nc\tpartial-garbag");
  (match Journal.load_or_create path with
   | exception Invalid_argument _ -> ()
   | j ->
     Journal.close j;
     Alcotest.fail "intact duplicate accepted behind torn tail");
  Sys.remove path

let test_journal_run_replays () =
  let path = temp_journal () in
  let j = Journal.load_or_create path in
  let calls = ref 0 in
  let work () =
    incr calls;
    "computed"
  in
  (match Journal.run j ~id:"item" work with
   | `Ran, "computed" -> ()
   | _ -> Alcotest.fail "first run should compute");
  (match Journal.run j ~id:"item" work with
   | `Replayed, "computed" -> ()
   | _ -> Alcotest.fail "second run should replay");
  check int_t "work ran once" 1 !calls;
  Journal.close j;
  (* and across a reload, byte-identically *)
  let before = read_file path in
  let j2 = Journal.load_or_create path in
  (match Journal.run j2 ~id:"item" work with
   | `Replayed, "computed" -> ()
   | _ -> Alcotest.fail "replay after reload");
  Journal.close j2;
  check string_t "reload appends nothing" before (read_file path);
  check int_t "still ran once" 1 !calls;
  Sys.remove path

let () =
  Alcotest.run "runner"
    [
      ( "cancel",
        [
          Alcotest.test_case "never" `Quick test_cancel_never;
          Alcotest.test_case "never on two domains" `Quick
            test_cancel_never_domains;
          Alcotest.test_case "every validation" `Quick
            test_cancel_every_validation;
          Alcotest.test_case "probe amortized" `Quick
            test_cancel_probe_amortized;
          Alcotest.test_case "fires and latches" `Quick
            test_cancel_fires_and_latches;
          Alcotest.test_case "deadline clock" `Quick
            test_cancel_deadline_with_clock;
          Alcotest.test_case "now monotone" `Quick test_cancel_now_monotone;
        ] );
      ( "runner",
        [
          Alcotest.test_case "timeout names stage (c=60, 50ms)" `Quick
            test_runner_timeout_names_stage;
          Alcotest.test_case "deterministic fallback" `Quick
            test_runner_fallback_deterministic;
          Alcotest.test_case "no budget keeps guards" `Quick
            test_runner_no_budget_keeps_guards;
          Alcotest.test_case "invalid objective" `Quick
            test_runner_invalid_objective;
          Alcotest.test_case "exact wins small" `Quick
            test_runner_exact_wins_small;
          Alcotest.test_case "baseline appended" `Quick
            test_runner_baseline_appended;
          Alcotest.test_case "chain_of_string" `Quick test_chain_of_string;
          Alcotest.test_case "solve result" `Quick test_runner_solve_result;
          qt prop_chains_never_regress_below_page_all;
          Alcotest.test_case "uncertainty re-ranks and certifies" `Quick
            test_runner_uncertainty_reranks;
          Alcotest.test_case "robust solver spec" `Quick
            test_solver_robust_spec;
          Alcotest.test_case "invalid budget" `Quick
            test_runner_invalid_budget;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncates partial line" `Quick
            test_journal_truncates_partial_line;
          Alcotest.test_case "fsync mode, torn tail" `Quick
            test_journal_fsync_torn_tail;
          Alcotest.test_case "rejects bad input" `Quick
            test_journal_rejects_bad_input;
          Alcotest.test_case "duplicate ids" `Quick test_journal_duplicate_ids;
          Alcotest.test_case "run replays" `Quick test_journal_run_replays;
        ] );
    ]
