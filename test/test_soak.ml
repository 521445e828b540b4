(* Chaos–soak harness for the deadline runner.

   Adversarial instances — near-zero rows, 1e-308 masses, heavy ties,
   hundreds of cells — are pushed through every fallback chain under
   tight budgets. Three invariants must survive every case:

     1. the run terminates within budget + grace (plus scheduling slack
        for loaded CI machines);
     2. the winning strategy is valid: partitions the cells, respects d;
     3. expected paging never regresses below the Page_all baseline.

   Seeds are fixed so CI failures reproduce; the default run stays fast
   (a few seconds). SOAK_CASES=<n> scales the sweep up for long runs. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool

(* ---------------- adversarial generators ---------------- *)

(* All mass on one cell; the rest at 1e-308, which underflows to nothing
   when summed against 1.0 — exercises denormal handling end to end. *)
let near_zero_rows ~m ~c ~d rng =
  let rows =
    Array.init m (fun _ ->
        let home = Prob.Rng.int rng c in
        Array.init c (fun j -> if j = home then 1.0 else 1e-308))
  in
  Instance.create ~d rows

(* Every cell weight identical: maximal ties, the sort and every
   tie-break in the DP sees equal keys. *)
let heavy_ties ~m ~c ~d =
  Instance.all_uniform ~m ~c ~d

(* A few huge cells and a long tail of tiny ones, mixed magnitudes. *)
let skewed ~m ~c ~d rng =
  Instance.random_zipf rng ~s:2.5 ~m ~c ~d

(* Tiny-but-nonzero tail: one dominant cell, the rest share 1e-9. *)
let tiny_tail ~m ~c ~d rng =
  let eps = 1e-9 /. float_of_int c in
  let rows =
    Array.init m (fun _ ->
        let home = Prob.Rng.int rng c in
        Array.init c (fun j ->
            if j = home then 1.0 -. (eps *. float_of_int (c - 1)) else eps))
  in
  Instance.create ~d rows

let generic ~m ~c ~d rng = Instance.random_uniform_simplex rng ~m ~c ~d

let generators =
  [
    "near-zero", near_zero_rows;
    "heavy-ties", (fun ~m ~c ~d _rng -> heavy_ties ~m ~c ~d);
    "skewed", skewed;
    "tiny-tail", tiny_tail;
    "simplex", generic;
  ]

(* ---------------- the soak loop ---------------- *)

let soak_case ?pool ?(slack_ms = 400.0) ~name ~objective ~budget_ms ~chain
    inst =
  let c = inst.Instance.c and d = inst.Instance.d in
  let t0 = Obs.now () in
  let report = Runner.run ~objective ~budget_ms ~chain ?pool inst in
  let wall_ms = (Obs.now () -. t0) *. 1000.0 in
  check bool_t
    (Printf.sprintf "%s: wall %.1f ms within %.0f + grace" name wall_ms
       budget_ms)
    true
    (wall_ms <= budget_ms +. 100.0 +. slack_ms);
  match report.Runner.winner with
  | None ->
    Alcotest.failf "%s: no winner (%s)" name
      (match report.Runner.failure with
       | Some e -> Runner.error_to_string e
       | None -> "no failure recorded")
  | Some (_, o) ->
    (match Strategy.validate ~c o.Solver.strategy with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "%s: invalid strategy: %s" name msg);
    check bool_t
      (Printf.sprintf "%s: rounds within d" name)
      true
      (Array.length (Strategy.groups o.Solver.strategy) <= d);
    let page_all_ep =
      (Solver.solve ~objective Solver.Page_all inst).Solver.expected_paging
    in
    check bool_t
      (Printf.sprintf "%s: EP %.6f <= page-all %.6f" name
         o.Solver.expected_paging page_all_ep)
      true
      (o.Solver.expected_paging <= page_all_ep +. 1e-9)

let cases =
  match Sys.getenv_opt "SOAK_CASES" with
  | Some n -> (try max 1 (int_of_string n) with _ -> 40)
  | None -> 40

let chains =
  [
    Runner.default_chain;
    Solver.[ Local_search; Greedy; Page_all ];
    Solver.[ Exhaustive; Greedy ];
    Solver.[ Branch_and_bound; Local_search ];
  ]

let test_soak () =
  let rng = Prob.Rng.create ~seed:9001 in
  for case = 1 to cases do
    let gen_name, gen =
      List.nth generators (Prob.Rng.int rng (List.length generators))
    in
    let m = 1 + Prob.Rng.int rng 6 in
    let c = 2 + Prob.Rng.int rng 299 in
    let d = 1 + Prob.Rng.int rng (min 8 c) in
    let inst = gen ~m ~c ~d rng in
    let objective =
      match Prob.Rng.int rng 3 with
      | 0 -> Objective.Find_all
      | 1 -> Objective.Find_any
      | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)
    in
    let budget_ms =
      match Prob.Rng.int rng 3 with 0 -> 1.0 | 1 -> 5.0 | _ -> 20.0
    in
    let chain = List.nth chains (Prob.Rng.int rng (List.length chains)) in
    let name =
      Printf.sprintf "case %d: %s m=%d c=%d d=%d %s budget=%.0fms" case
        gen_name m c d
        (Objective.to_string objective)
        budget_ms
    in
    soak_case ~name ~objective ~budget_ms ~chain inst
  done

(* Parallel chaos: the same adversarial diet, but raced across a domain
   pool. The three soak invariants must hold unchanged — the budget is
   shared by all raced stages, so termination-in-budget is the property
   most at risk — and the pool must not leak domains. Slack is wider
   than the sequential mode's: raced stages contend for cores, and on a
   single-core machine every raced case serializes behind the GC. *)
let test_soak_parallel () =
  let rng = Prob.Rng.create ~seed:40099 in
  let before = Exec.Pool.active_domains () in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          for case = 1 to max 1 (cases / 2) do
            let gen_name, gen =
              List.nth generators (Prob.Rng.int rng (List.length generators))
            in
            let m = 1 + Prob.Rng.int rng 4 in
            let c = 2 + Prob.Rng.int rng 149 in
            let d = 1 + Prob.Rng.int rng (min 8 c) in
            let inst = gen ~m ~c ~d rng in
            let objective =
              match Prob.Rng.int rng 3 with
              | 0 -> Objective.Find_all
              | 1 -> Objective.Find_any
              | _ -> Objective.Find_at_least (1 + Prob.Rng.int rng m)
            in
            let budget_ms =
              match Prob.Rng.int rng 3 with 0 -> 1.0 | 1 -> 5.0 | _ -> 20.0
            in
            let chain =
              List.nth chains (Prob.Rng.int rng (List.length chains))
            in
            let name =
              Printf.sprintf
                "parallel case %d: %s m=%d c=%d d=%d %s budget=%.0fms \
                 domains=%d"
                case gen_name m c d
                (Objective.to_string objective)
                budget_ms domains
            in
            soak_case ~pool ~slack_ms:1500.0 ~name ~objective ~budget_ms
              ~chain inst
          done))
    [ 2; 4 ];
  check bool_t "no leaked domains after parallel soak" true
    (Exec.Pool.active_domains () = before)

(* The degenerate corners deserve their own deterministic pass: the
   smallest instances, d = 1, d = c, single device, all under a 1 ms
   budget. *)
let test_soak_corners () =
  List.iter
    (fun (m, c, d) ->
      let rng = Prob.Rng.create ~seed:(m + (17 * c) + (1009 * d)) in
      List.iter
        (fun (gname, gen) ->
          let inst = gen ~m ~c ~d rng in
          soak_case
            ~name:(Printf.sprintf "corner %s m=%d c=%d d=%d" gname m c d)
            ~objective:Objective.Find_all ~budget_ms:1.0
            ~chain:Runner.default_chain inst)
        generators)
    [ (1, 1, 1); (1, 2, 2); (2, 2, 1); (3, 2, 2); (1, 300, 8); (6, 50, 50) ]

(* ---------------- serve overload soak ---------------- *)

(* The daemon under a 4x-capacity burst of the same adversarial diet,
   with 1–20 ms budgets. Invariants:

     1. every request gets exactly one terminal response
        (ok / degraded / rejected — never silence, never a duplicate);
     2. a drain requested mid-burst still completes within grace;
     3. no leaked domains once the daemon stops. *)
let run_serve_burst ~chaos () =
  let before = Exec.Pool.active_domains () in
  let capacity = 8 in
  (* Chaos leg: every faultpoint armed at once, double the burst, cache
     journalling on so the journal/cache points actually probe. *)
  let n_mult = if chaos then 8 else 4 in
  let cache_path =
    if chaos then begin
      let p = Filename.temp_file "confcall_soak" ".cache" in
      Sys.remove p;
      Some p
    end
    else None
  in
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Tcp 0)) with
      domains = 2;
      capacity;
      cache_path;
      cache_fsync = chaos;
      drain_grace_ms = 30_000.0;
      quiet = true;
    }
  in
  let h = Serve.Server.start cfg in
  let port = Option.get (Serve.Server.bound_port h) in
  let conn = Testutil.frame_connect (Client.Tcp port) in
  let send = Testutil.send_frame conn in
  let rng = Prob.Rng.create ~seed:0x50AC in
  let n = n_mult * capacity in
  let burst () =
    for i = 1 to n do
      let gen_name, gen =
        List.nth generators (Prob.Rng.int rng (List.length generators))
      in
      ignore gen_name;
      let m = 1 + Prob.Rng.int rng 3 in
      let c = 2 + Prob.Rng.int rng 60 in
      let d = 1 + Prob.Rng.int rng (min 6 c) in
      let inst = gen ~m ~c ~d rng in
      let budget_ms =
        match Prob.Rng.int rng 3 with 0 -> 1.0 | 1 -> 5.0 | _ -> 20.0
      in
      send
        (Wire.Json.to_string
           (Wire.Json.Obj
              [
                ("id", Wire.Json.Str (Printf.sprintf "s%d" i));
                ("op", Wire.Json.Str "solve");
                ("instance", Wire.Json.Str (Instance.to_string inst));
                ("chain", Wire.Json.Str "default");
                ("budget_ms", Wire.Json.Num budget_ms);
                ("cache", Wire.Json.Bool chaos);
              ]))
    done
  in
  burst ();
  (* drain lands while the burst is still in flight *)
  Serve.Server.request_drain h;
  (* collect until every id has answered, counting duplicates *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create n in
  let statuses : (string, string) Hashtbl.t = Hashtbl.create n in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Hashtbl.length seen < n && Unix.gettimeofday () < deadline do
    match Testutil.next_frame conn ~deadline with
    | _ when conn.blank_lines > 0 ->
      Alcotest.failf "non-JSON response %S (an empty line)" ""
    | None -> if conn.eof then Alcotest.fail "daemon closed mid-burst"
    | Some line -> (
      match Wire.Json.parse line with
      | Error e -> Alcotest.failf "non-JSON response %S (%s)" line e
      | Ok j -> (
        let str k = Option.bind (Wire.Json.member k j) Wire.Json.to_str in
        match str "id" with
        | Some id ->
          Hashtbl.replace seen id
            (1 + Option.value (Hashtbl.find_opt seen id) ~default:0);
          Hashtbl.replace statuses id
            (Option.value (str "status") ~default:"?")
        | None -> Alcotest.failf "response without id: %S" line))
  done;
  Testutil.frame_close conn;
  check bool_t "drain completes within grace" true (Serve.Server.stop h);
  check bool_t
    (Printf.sprintf "all %d burst requests answered (got %d)" n
       (Hashtbl.length seen))
    true
    (Hashtbl.length seen = n);
  for i = 1 to n do
    let id = Printf.sprintf "s%d" i in
    check bool_t (id ^ ": exactly one terminal response") true
      (Hashtbl.find_opt seen id = Some 1);
    match Hashtbl.find_opt statuses id with
    | Some ("ok" | "degraded" | "rejected") -> ()
    (* Under chaos an injected fault may legitimately surface as an
       error frame — still exactly one, still terminal. *)
    | Some "error" when chaos -> ()
    | st ->
      Alcotest.failf "%s: non-terminal status %s" id
        (Option.value st ~default:"<none>")
  done;
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) cache_path;
  check bool_t "no leaked domains after serve soak" true
    (Exec.Pool.active_domains () = before)

let test_soak_serve () = run_serve_burst ~chaos:false ()

(* The chaos gate: every catalogued faultpoint armed at once
   (CHAOS_SEED keys every point's decisions; CI runs a small seed matrix),
   double the burst of the clean leg, result cache journalled with
   fsync so the journal points probe. Invariants are the clean leg's —
   exactly one terminal response per request, drain within grace, zero
   leaked domains — plus: the seam actually fired, and disabling it
   restores the clean path. The leg prints its seed and per-point
   fired counts to stderr, and a failing leg its fault spec, so a CI
   log is enough to replay it. *)
let test_soak_serve_chaos () =
  let seed =
    match Option.bind (Sys.getenv_opt "CHAOS_SEED") int_of_string_opt with
    | Some s -> s
    | None -> 1
  in
  let spec = "*=0.05" in
  Faultpoint.configure_exn ~seed spec;
  (match
     Fun.protect ~finally:Faultpoint.disable (fun () ->
         run_serve_burst ~chaos:true ();
         Printf.eprintf "chaos leg: CHAOS_SEED=%d fired %s\n%!" seed
           (String.concat " "
              (List.map
                 (fun (p, n) -> Printf.sprintf "%s=%d" p n)
                 (Faultpoint.fired_all ())));
         check bool_t "chaos seam fired at least once" true
           (Faultpoint.total_fired () > 0))
   with
   | () -> ()
   | exception e ->
     let bt = Printexc.get_raw_backtrace () in
     Printf.eprintf "chaos leg failed: CHAOS_SEED=%d faults=%s\n%!" seed spec;
     Printexc.raise_with_backtrace e bt);
  check bool_t "seam off after chaos leg" false (Faultpoint.on ())

let () =
  Alcotest.run "soak"
    [
      ( "chaos",
        [
          Alcotest.test_case "randomized soak" `Quick test_soak;
          Alcotest.test_case "parallel randomized soak" `Quick
            test_soak_parallel;
          Alcotest.test_case "degenerate corners" `Quick test_soak_corners;
        ] );
      ( "serve",
        [
          Alcotest.test_case "overload burst, drain mid-flight" `Quick
            test_soak_serve;
          Alcotest.test_case "chaos burst: every faultpoint armed" `Quick
            test_soak_serve_chaos;
        ] );
    ]
