(* Differential and determinism harness for the multicore runtime.

   Parallelism is only admissible here because it is invisible in the
   results: a raced fallback chain must choose the stage the sequential
   loop chooses, a sharded sweep must write the bytes the sequential
   sweep writes, and replica reduction must not care what order the
   replicas finished in. This suite pins each of those claims over
   hundreds of seeded instances, plus the pool mechanics (deterministic
   ordering, error propagation, no leaked domains) and the cooperative
   cancellation of raced losers. *)

open Confcall
module Q = Numeric.Rational

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ---------------- pool mechanics ---------------- *)

let test_map_order () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 100 Fun.id in
      let out = Exec.Pool.map pool (fun i -> i * i) input in
      check bool_t "results in input order" true
        (out = Array.map (fun i -> i * i) input);
      check bool_t "empty input" true (Exec.Pool.map pool succ [||] = [||]);
      check bool_t "map_list order" true
        (Exec.Pool.map_list pool succ [ 1; 2; 3 ] = [ 2; 3; 4 ]))

let test_size_one_sequential () =
  let before = Exec.Pool.active_domains () in
  let pool = Exec.Pool.create ~domains:1 () in
  check int_t "no domains spawned" before (Exec.Pool.active_domains ());
  let out = Exec.Pool.map pool (fun i -> 2 * i) (Array.init 10 Fun.id) in
  check bool_t "sequential map" true (out = Array.init 10 (fun i -> 2 * i));
  Exec.Pool.join pool;
  check int_t "still no domains" before (Exec.Pool.active_domains ())

(* One error contract at every size: a raising task does not stop its
   siblings, and the lowest-indexed error surfaces once all have run. *)
let test_error_lowest_index () =
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          let ran = Atomic.make 0 in
          let f i =
            Atomic.incr ran;
            if i = 3 || i = 7 then failwith (string_of_int i) else i
          in
          match Exec.Pool.map pool f (Array.init 10 Fun.id) with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure msg ->
            let what = Printf.sprintf "size %d: " domains in
            check bool_t (what ^ "lowest-indexed failure") true (msg = "3");
            check int_t (what ^ "every task ran") 10 (Atomic.get ran)))
    [ 1; 4 ]

let test_nested_map_rejected () =
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      match
        Exec.Pool.map pool
          (fun i ->
            if i = 0 then
              Array.length (Exec.Pool.map pool Fun.id [| 1; 2 |])
            else i)
          [| 0; 1 |]
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_join_idempotent_no_leak () =
  let before = Exec.Pool.active_domains () in
  let pool = Exec.Pool.create ~domains:4 () in
  check int_t "workers spawned" (before + 3) (Exec.Pool.active_domains ());
  ignore (Exec.Pool.map pool succ (Array.init 32 Fun.id));
  Exec.Pool.join pool;
  Exec.Pool.join pool;
  check int_t "all joined" before (Exec.Pool.active_domains ());
  (match Exec.Pool.map pool succ [| 1 |] with
   | _ -> Alcotest.fail "map on joined pool must raise"
   | exception Invalid_argument _ -> ());
  (* with_pool joins even when the body escapes with an exception *)
  (match
     Exec.Pool.with_pool ~domains:3 (fun _ -> raise Exit)
   with
   | () -> Alcotest.fail "expected Exit"
   | exception Exit -> ());
  check int_t "with_pool joined on exception" before
    (Exec.Pool.active_domains ())

(* Regression: a task that raises must not corrupt the global
   active-domains accounting. Repeated failing rounds through many
   pools would previously drift the counter, masking real leaks. *)
let test_raising_tasks_no_leak () =
  let before = Exec.Pool.active_domains () in
  for round = 1 to 5 do
    (match
       Exec.Pool.with_pool ~domains:4 (fun pool ->
           Exec.Pool.map pool
             (fun i -> if i mod 2 = round mod 2 then failwith "boom" else i)
             (Array.init 16 Fun.id))
     with
     | _ -> Alcotest.fail "expected Failure"
     | exception Failure _ -> ());
    check int_t
      (Printf.sprintf "round %d: accounting intact after task raise" round)
      before
      (Exec.Pool.active_domains ())
  done;
  (* a clean pool after the failing rounds still spawns and joins the
     full complement — the counter did not drift negative *)
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      check int_t "fresh pool spawns after failures" (before + 3)
        (Exec.Pool.active_domains ());
      ignore (Exec.Pool.map pool succ (Array.init 8 Fun.id)));
  check int_t "fresh pool joined" before (Exec.Pool.active_domains ())

(* ---------------- cancellation ---------------- *)

(* The losing side of a race must stop within one poll interval of its
   token firing. One task spins incrementing a counter and polling a
   token whose probe reads an atomic flag (poll interval [every]); the
   other observes the counter, flips the flag, and remembers what it
   saw. The spinner must stop soon after — not run to its cap. *)
let test_cancelled_within_poll_interval () =
  let every = 32 in
  let cap = 200_000_000 in
  let progress = Atomic.make 0 in
  let lose = Atomic.make false in
  let seen_at_fire = Atomic.make (-1) in
  let spinner () =
    let tok = Cancel.of_probe ~every (fun () -> Atomic.get lose) in
    (try
       while Atomic.get progress < cap do
         Cancel.check tok;
         Atomic.incr progress
       done
     with Cancel.Cancelled -> ());
    Atomic.get progress
  in
  let canceller () =
    let spins = ref 0 in
    while Atomic.get progress < 10_000 && !spins < max_int - 1 do
      incr spins
    done;
    Atomic.set seen_at_fire (Atomic.get progress);
    Atomic.set lose true;
    0
  in
  let final =
    Exec.Pool.with_pool ~domains:2 (fun pool ->
        (Exec.Pool.map pool (fun f -> f ()) [| spinner; canceller |]).(0))
  in
  let seen = Atomic.get seen_at_fire in
  check bool_t "canceller observed progress first" true (seen >= 10_000);
  check bool_t
    (Printf.sprintf "stopped well before the cap (final %d)" final)
    true (final < cap);
  (* One poll interval is [every] iterations; allow generous scheduling
     slack between the canceller's read and its store. *)
  check bool_t
    (Printf.sprintf "stopped within ~one poll interval (%d after %d)" final
       seen)
    true
    (final - seen <= 1000 * every)

(* End-to-end: in a raced first-success chain, a success at index i
   cancels every later stage; the expensive loser either completed
   before the flag fired or returns Degraded (anytime best-so-far) /
   Failed Timeout — and the winner is still the earlier stage. *)
let test_raced_loser_cancelled () =
  let rng = Prob.Rng.create ~seed:77 in
  let inst = Instance.random_uniform_simplex rng ~m:3 ~c:120 ~d:4 in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      let report =
        Runner.run ~chain:Solver.[ Greedy; Local_search ] ~pool inst
      in
      (match report.Runner.winner with
       | Some (Solver.Greedy, _) -> ()
       | _ -> Alcotest.fail "greedy must win the race");
      List.iter
        (fun (s : Runner.stage_report) ->
          check bool_t "stage attributed as raced" true s.Runner.raced;
          if s.Runner.spec = Solver.Local_search then
            match s.Runner.status with
            | Runner.Completed | Runner.Degraded
            | Runner.Failed Runner.Timeout ->
              ()
            | st ->
              Alcotest.failf "unexpected loser status: %s"
                (Runner.stage_status_to_string st))
        report.Runner.stages)

(* ---------------- runner differential ---------------- *)

let chains =
  [
    Runner.default_chain;
    Solver.[ Local_search; Greedy; Page_all ];
    Solver.[ Exhaustive; Greedy ];
    Solver.[ Branch_and_bound; Local_search ];
    Solver.[ Class_based; Bandwidth_limited 4; Page_all ];
  ]

let winner_key (r : Runner.run_report) =
  match r.Runner.winner with
  | None -> None
  | Some (spec, o) ->
    Some (Solver.spec_to_string spec, o.Solver.expected_paging)

let winner_strategy (r : Runner.run_report) =
  Option.map (fun (_, o) -> o.Solver.strategy) r.Runner.winner

let assert_same_run ~name seq par =
  check bool_t
    (Printf.sprintf "%s: same winner stage and EP" name)
    true
    (winner_key seq = winner_key par);
  (match (winner_strategy seq, winner_strategy par) with
   | Some a, Some b ->
     check bool_t (Printf.sprintf "%s: same strategy" name) true
       (Strategy.equal a b)
   | None, None -> ()
   | _ -> Alcotest.failf "%s: winner presence differs" name)

(* 160 random float instances: the raced chain (4 domains) must pick
   the same stage, strategy and EP as the sequential loop, and the
   choice must be invariant in the number of domains (2 and 3 spot
   checks). Chains are unbudgeted, so stage outcomes are deterministic
   (guarded exact methods fail as Inapplicable deterministically). *)
let test_differential_float () =
  let rng = Prob.Rng.create ~seed:31337 in
  Exec.Pool.with_pool ~domains:4 (fun pool4 ->
      Exec.Pool.with_pool ~domains:2 (fun pool2 ->
          Exec.Pool.with_pool ~domains:3 (fun pool3 ->
              for case = 1 to 160 do
                let m = 1 + Prob.Rng.int rng 4 in
                let c = 2 + Prob.Rng.int rng 28 in
                let d = 1 + Prob.Rng.int rng (min 6 c) in
                let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
                let objective =
                  match Prob.Rng.int rng 3 with
                  | 0 -> Objective.Find_all
                  | 1 -> Objective.Find_any
                  | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)
                in
                let chain =
                  List.nth chains (Prob.Rng.int rng (List.length chains))
                in
                let name = Printf.sprintf "float case %d (m=%d c=%d d=%d)"
                    case m c d in
                let seq = Runner.run ~objective ~chain inst in
                let par = Runner.run ~objective ~chain ~pool:pool4 inst in
                assert_same_run ~name seq par;
                if case mod 8 = 0 then begin
                  assert_same_run ~name:(name ^ " [domains=2]") seq
                    (Runner.run ~objective ~chain ~pool:pool2 inst);
                  assert_same_run ~name:(name ^ " [domains=3]") seq
                    (Runner.run ~objective ~chain ~pool:pool3 inst)
                end
              done)))

(* Dyadic instances: probabilities are multiples of 1/1024, so the
   float matrix is exact and the rational oracle can certify that both
   winners have *identical* expected paging as exact rationals — not
   merely equal up to float printing. 60 instances. *)
let dyadic_exact rng ~m ~c ~d =
  let denom = 1024 in
  let rows =
    Array.init m (fun _ ->
        let w = Array.make c 1 in
        for _ = 1 to denom - c do
          let j = Prob.Rng.int rng c in
          w.(j) <- w.(j) + 1
        done;
        Array.map (fun x -> Q.of_ints x denom) w)
  in
  Instance.Exact.create ~d rows

let test_differential_rational_oracle () =
  let rng = Prob.Rng.create ~seed:271828 in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      for case = 1 to 60 do
        let m = 1 + Prob.Rng.int rng 3 in
        let c = 2 + Prob.Rng.int rng 20 in
        let d = 1 + Prob.Rng.int rng (min 5 c) in
        let exact = dyadic_exact rng ~m ~c ~d in
        let inst = Instance.Exact.to_float exact in
        let chain =
          List.nth chains (Prob.Rng.int rng (List.length chains))
        in
        let name = Printf.sprintf "dyadic case %d (m=%d c=%d d=%d)" case m c d in
        let seq = Runner.run ~chain inst in
        let par = Runner.run ~chain ~pool inst in
        assert_same_run ~name seq par;
        match (winner_strategy seq, winner_strategy par) with
        | Some a, Some b ->
          let ep_a = Strategy.expected_paging_exact exact a in
          let ep_b = Strategy.expected_paging_exact exact b in
          check bool_t
            (Printf.sprintf "%s: rational oracle EP equal" name)
            true (Q.equal ep_a ep_b)
        | _ -> Alcotest.failf "%s: missing winner" name
      done)

(* Uncertainty re-ranking: every stage runs in both modes; the raced
   run must agree on the winner, its worst-case EP and certification. *)
let test_differential_uncertainty () =
  let rng = Prob.Rng.create ~seed:4242 in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      for case = 1 to 40 do
        let m = 1 + Prob.Rng.int rng 3 in
        let c = 2 + Prob.Rng.int rng 20 in
        let d = 1 + Prob.Rng.int rng (min 4 c) in
        let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
        let u = Uncertainty.uniform (0.001 *. float_of_int (1 + case mod 20)) in
        let chain = Solver.[ Local_search; Greedy; Page_all ] in
        let name = Printf.sprintf "uncertainty case %d" case in
        let seq = Runner.run ~chain ~uncertainty:u inst in
        let par = Runner.run ~chain ~uncertainty:u ~pool inst in
        assert_same_run ~name seq par;
        (* The winner stage's score: the stage the winner came from. *)
        let robust_ep (r : Runner.run_report) =
          Option.bind r.Runner.winner (fun (spec, _) ->
              List.find_map
                (fun (s : Runner.stage_report) ->
                  if s.Runner.spec = spec then s.Runner.robust_ep else None)
                r.Runner.stages)
        in
        check bool_t
          (Printf.sprintf "%s: same certified worst-case EP" name)
          true
          (robust_ep seq = robust_ep par)
      done)

(* Overdue chains: a fake clock that reads the wall time at the run's
   start and then jumps far past the deadline and stays there. Every
   expensive stage is skipped as [Failed Timeout] with no elapsed time,
   the fast ones run under a grace token that never fires, so both
   schedules are deterministic and must report the same stages. The
   clock is shared by the raced stages' domains, hence the atomic. The
   stages' tokens are the run's only deadline mechanism, so the
   default grace window holds on any host: its end is read on this
   clock too. *)
let jumping_clock () =
  let reads = Atomic.make 0 in
  let start = Obs.now () in
  fun () ->
    if Atomic.fetch_and_add reads 1 = 0 then start else start +. 1000.0

let expensive = function
  | Solver.Best_exact | Solver.Branch_and_bound | Solver.Local_search -> true
  | _ -> false

let stage_key (s : Runner.stage_report) =
  let bits = Option.map Int64.bits_of_float in
  ( Solver.spec_to_string s.Runner.spec,
    Runner.stage_status_to_string s.Runner.status,
    bits s.Runner.expected_paging,
    bits s.Runner.robust_ep )

let winner_bits (r : Runner.run_report) =
  Option.map
    (fun (spec, o) ->
      ( Solver.spec_to_string spec,
        Int64.bits_of_float o.Solver.expected_paging,
        o.Solver.strategy ))
    r.Runner.winner

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let test_overdue_same_report () =
  let rng = Prob.Rng.create ~seed:9091 in
  let chain =
    Solver.
      [ Best_exact; Greedy; Branch_and_bound; Bandwidth_limited 2;
        Local_search; Page_all ]
  in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      for case = 1 to 20 do
        let m = 1 + Prob.Rng.int rng 3 in
        (* Large enough that the fast stages poll their tokens: a raced
           stage without the grace window would time out. *)
        let c = 100 + Prob.Rng.int rng 200 in
        let d = 2 + Prob.Rng.int rng 3 in
        let inst = Instance.random_uniform_simplex rng ~m ~c ~d in
        let name = Printf.sprintf "overdue case %d" case in
        let run ?uncertainty ?pool () =
          Runner.run ~budget_ms:10.0 ~clock:(jumping_clock ()) ~chain
            ?uncertainty ?pool inst
        in
        (* Re-ranking: every stage is reported, identically. *)
        let uncertainty = Uncertainty.uniform 0.01 in
        let seq = run ~uncertainty () and par = run ~uncertainty ~pool () in
        check bool_t (name ^ ": same stages") true
          (List.map stage_key seq.Runner.stages
           = List.map stage_key par.Runner.stages);
        check bool_t (name ^ ": same winner") true
          (winner_bits seq = winner_bits par);
        check bool_t (name ^ ": a fast stage wins") true
          (match seq.Runner.winner with
           | Some (spec, _) -> Runner.always_fast spec
           | None -> false);
        List.iter
          (fun (s : Runner.stage_report) ->
            if expensive s.Runner.spec then begin
              check bool_t (name ^ ": expensive stage timed out") true
                (s.Runner.status = Runner.Failed Runner.Timeout);
              check bool_t (name ^ ": skipped, not run") true
                (s.Runner.elapsed_ms = 0.0)
            end)
          (seq.Runner.stages @ par.Runner.stages);
        (* First success: the sequential stages are a prefix of the
           raced ones, and the winner is the same. *)
        let seq = run () and par = run ~pool () in
        check bool_t (name ^ ": first-success prefix") true
          (is_prefix
             (List.map stage_key seq.Runner.stages)
             (List.map stage_key par.Runner.stages));
        check bool_t (name ^ ": first-success winner") true
          (winner_bits seq = winner_bits par
           && Option.map fst seq.Runner.winner = Some Solver.Greedy)
      done)

(* ---------------- sharded sweep differential ---------------- *)

let tmp name = Filename.temp_file ("confcall_parallel_" ^ name) ".journal"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sweep_items n =
  List.init n (fun k ->
      let seed = 500 + k in
      {
        Sweep.id = Printf.sprintf "par/c12/seed%d" seed;
        compute =
          (fun () ->
            let rng = Prob.Rng.create ~seed in
            let inst = Instance.random_uniform_simplex rng ~m:2 ~c:12 ~d:3 in
            let o = Solver.solve Solver.Greedy inst in
            Printf.sprintf "%.9f" o.Solver.expected_paging);
      })

let run_sweep ?pool path items =
  let journal = Journal.load_or_create path in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () -> Sweep.run ?pool ~journal items)

let test_sweep_bytes_identical () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let items = sweep_items 30 in
      let seq_path = tmp "seq" and par_path = tmp "par" in
      Sys.remove seq_path;
      Sys.remove par_path;
      let seq = run_sweep seq_path items in
      let par = run_sweep ~pool par_path items in
      check bool_t "outcomes identical" true
        (List.map (fun o -> (o.Sweep.id, o.Sweep.payload)) seq
        = List.map (fun o -> (o.Sweep.id, o.Sweep.payload)) par);
      check bool_t "all parallel items ran" true
        (List.for_all (fun o -> o.Sweep.status = `Ran) par);
      check bool_t "journal bytes identical" true
        (read_file seq_path = read_file par_path);
      check bool_t "no shard files left" true
        (not (Sys.file_exists (Sweep.shard_path par_path 0)));
      Sys.remove seq_path;
      Sys.remove par_path)

let test_sweep_resume_bytes_identical () =
  Exec.Pool.with_pool ~domains:3 (fun pool ->
      let items = sweep_items 24 in
      let firstn n = List.filteri (fun i _ -> i < n) items in
      let resumed = tmp "resumed" and control = tmp "control" in
      Sys.remove resumed;
      Sys.remove control;
      (* Interrupted sequential prefix, finished by the sharded run. *)
      ignore (run_sweep resumed (firstn 9));
      let finish = run_sweep ~pool resumed items in
      ignore (run_sweep control items);
      check bool_t "resumed journal byte-identical to uninterrupted" true
        (read_file resumed = read_file control);
      check int_t "prefix replayed" 9
        (List.length
           (List.filter (fun o -> o.Sweep.status = `Replayed) finish));
      Sys.remove resumed;
      Sys.remove control)

let test_sweep_crash_leftovers () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let items = sweep_items 12 in
      let path = tmp "crash" in
      Sys.remove path;
      (* A crashed run left a shard journal holding two finished items
         with sentinel payloads; the next run must reuse them instead of
         recomputing, and still merge in item order. *)
      let cached =
        List.filteri (fun i _ -> i = 5 || i = 6) items
        |> List.map (fun (it : Sweep.item) ->
               (it.Sweep.id, "sentinel-" ^ it.Sweep.id))
      in
      let shard = Journal.load_or_create (Sweep.shard_path path 1) in
      List.iter
        (fun (id, payload) -> Journal.record shard ~id ~payload)
        cached;
      Journal.close shard;
      let outcomes = run_sweep ~pool path items in
      List.iter
        (fun o ->
          match List.assoc_opt o.Sweep.id cached with
          | Some sentinel ->
            check bool_t (o.Sweep.id ^ ": recovered payload") true
              (o.Sweep.payload = sentinel && o.Sweep.status = `Recovered)
          | None ->
            check bool_t (o.Sweep.id ^ ": ran") true (o.Sweep.status = `Ran))
        outcomes;
      (* Merged order is still item order. *)
      let journal = Journal.load_or_create path in
      let ids = List.map fst (Journal.entries journal) in
      Journal.close journal;
      check bool_t "merge preserves item order" true
        (ids = List.map (fun (it : Sweep.item) -> it.Sweep.id) items);
      check bool_t "leftover shard deleted" true
        (not (Sys.file_exists (Sweep.shard_path path 1)));
      Sys.remove path)

let test_sweep_duplicate_ids () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let items = sweep_items 6 in
      let doubled = items @ items in
      let path = tmp "dup" in
      Sys.remove path;
      let outcomes = run_sweep ~pool path doubled in
      let ran, replayed =
        List.partition (fun o -> o.Sweep.status = `Ran) outcomes
      in
      check int_t "each id computed once" 6 (List.length ran);
      check int_t "duplicates replayed" 6 (List.length replayed);
      Sys.remove path)

(* ---------------- replica reduction ---------------- *)

let small_sim_config () =
  { (Cellsim.Sim.default_config ()) with Cellsim.Sim.duration = 60.0 }

let test_replicate_order_independent () =
  let cfg = small_sim_config () in
  let replicas = Cellsim.Replicate.run ~replicas:5 cfg in
  let base = Cellsim.Replicate.reduce replicas in
  check bool_t "reversed order, same summary" true
    (Cellsim.Replicate.reduce (List.rev replicas) = base);
  let rng = Prob.Rng.create ~seed:55 in
  let arr = Array.of_list replicas in
  Prob.Rng.shuffle rng arr;
  check bool_t "shuffled order, same summary" true
    (Cellsim.Replicate.reduce (Array.to_list arr) = base)

let test_replicate_parallel_equals_sequential () =
  let cfg = small_sim_config () in
  let seq = Cellsim.Replicate.run_summary ~replicas:4 cfg in
  let par =
    Exec.Pool.with_pool ~domains:4 (fun pool ->
        Cellsim.Replicate.run_summary ~pool ~replicas:4 cfg)
  in
  check bool_t "parallel summary bit-identical" true (seq = par)

(* ---------------- registration ---------------- *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "size 1 is sequential" `Quick
            test_size_one_sequential;
          Alcotest.test_case "lowest-index error wins" `Quick
            test_error_lowest_index;
          Alcotest.test_case "nested map rejected" `Quick
            test_nested_map_rejected;
          Alcotest.test_case "join idempotent, no leaks" `Quick
            test_join_idempotent_no_leak;
          Alcotest.test_case "raising tasks keep accounting" `Quick
            test_raising_tasks_no_leak;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancelled within one poll interval" `Quick
            test_cancelled_within_poll_interval;
          Alcotest.test_case "raced loser cancelled, winner unchanged" `Quick
            test_raced_loser_cancelled;
        ] );
      ( "runner-differential",
        [
          Alcotest.test_case "160 float instances, domains 2/3/4" `Quick
            test_differential_float;
          Alcotest.test_case "60 dyadic instances, rational oracle" `Quick
            test_differential_rational_oracle;
          Alcotest.test_case "40 uncertainty re-rankings" `Quick
            test_differential_uncertainty;
          Alcotest.test_case "overdue chain, same report" `Quick
            test_overdue_same_report;
        ] );
      ( "sweep-differential",
        [
          Alcotest.test_case "journal bytes identical" `Quick
            test_sweep_bytes_identical;
          Alcotest.test_case "resume byte-identical" `Quick
            test_sweep_resume_bytes_identical;
          Alcotest.test_case "crash leftovers recovered" `Quick
            test_sweep_crash_leftovers;
          Alcotest.test_case "duplicate ids replay" `Quick
            test_sweep_duplicate_ids;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "reduction order-independent" `Quick
            test_replicate_order_independent;
          Alcotest.test_case "parallel equals sequential" `Quick
            test_replicate_parallel_equals_sequential;
        ] );
    ]
