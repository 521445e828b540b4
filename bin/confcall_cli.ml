(* Command-line front end for the conference-call paging library.

   Subcommands:
     generate   write a random instance to stdout
     solve      solve an instance file with a chosen solver
     sweep      journaled multi-instance runner sweep (resumable)
     compare    run several solvers on one instance
     evaluate   expected paging of an explicit strategy
     simulate   run the end-to-end cellular simulation
     hardness   demonstrate the Partition -> Conference Call reduction
     serve      run the JSONL paging daemon (admission control, deadlines)
     loadgen    drive open-loop Poisson load at a serve daemon *)

open Cmdliner
open Confcall

(* Every command body runs under [guard]: user-level failures (bad
   instance file, inapplicable solver, missing file) go to stderr as one
   message and exit 2 — never a backtrace, never exit 0. *)
let guard f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "confcall: error: %s\n" msg;
    exit 2

let read_instance path =
  let content =
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_text path In_channel.input_all
  in
  Instance.of_string content

(* ---------------- JSON output ----------------

   Machine-readable output for bench trajectories and CI: every
   [--json] document is a [Wire.Json] tree, printed by the same printer
   as the daemon's frames. *)

module J = Wire.Json

let print_json v = print_endline (J.to_string v)

let summary_json (s : Prob.Stats.summary) =
  J.Obj
    [
      ("n", J.int s.Prob.Stats.n);
      ("mean", J.Num s.Prob.Stats.mean);
      ("stddev", J.Num s.Prob.Stats.stddev);
      ("min", J.Num s.Prob.Stats.min);
      ("max", J.Num s.Prob.Stats.max);
    ]

let sim_result_json (r : Cellsim.Sim.result) =
  let robustness (f : Cellsim.Sim.fault_metrics) =
    J.Obj
      [
        ("retries", J.int f.Cellsim.Sim.retries);
        ("retry_cells", J.int f.Cellsim.Sim.retry_cells);
        ("retry_rounds", J.int f.Cellsim.Sim.retry_rounds);
        ("escalations", J.int f.Cellsim.Sim.escalations);
        ("escalate_cells", J.int f.Cellsim.Sim.escalate_cells);
        ("residual_misses", J.int f.Cellsim.Sim.residual_misses);
        ("pages_lost", J.int f.Cellsim.Sim.pages_lost);
        ("pages_blocked", J.int f.Cellsim.Sim.pages_blocked);
      ]
  in
  let scheme (s : Cellsim.Sim.scheme_metrics) =
    J.Obj
      [
        ("scheme", J.Str (Cellsim.Sim.scheme_to_string s.Cellsim.Sim.scheme));
        ("calls", J.int s.Cellsim.Sim.calls);
        ("devices_sought", J.int s.Cellsim.Sim.devices_sought);
        ("cells_paged", J.int s.Cellsim.Sim.cells_paged);
        ("expected_paging", J.Num s.Cellsim.Sim.expected_paging);
        ("rounds_used", J.int s.Cellsim.Sim.rounds_used);
        ("per_call", summary_json s.Cellsim.Sim.per_call);
        ("robustness", robustness s.Cellsim.Sim.robustness);
      ]
  in
  J.Obj
    ([
       ("duration", J.Num r.Cellsim.Sim.duration);
       ("moves", J.int r.Cellsim.Sim.moves);
       ("updates", J.int r.Cellsim.Sim.updates);
       ("total_calls", J.int r.Cellsim.Sim.total_calls);
       ("skipped_calls", J.int r.Cellsim.Sim.skipped_calls);
       ("reports_lost", J.int r.Cellsim.Sim.reports_lost);
       ("reports_delayed", J.int r.Cellsim.Sim.reports_delayed);
       ("outages", J.int r.Cellsim.Sim.outages);
       ("polls", J.int r.Cellsim.Sim.polls);
       ("per_scheme", J.Arr (List.map scheme r.Cellsim.Sim.per_scheme));
     ]
    @
    match r.Cellsim.Sim.drift with
    | Some d ->
      [
        ( "drift",
          J.Obj
            [
              ("checks", J.int d.Cellsim.Sim.checks);
              ("evaluated", J.int d.Cellsim.Sim.evaluated);
              ("resolves", J.int d.Cellsim.Sim.resolves);
              ( "last_resolve",
                match d.Cellsim.Sim.last_resolve with
                | Some t -> J.Num t
                | None -> J.Null );
              ("max_mean_tv", J.Num d.Cellsim.Sim.max_mean_tv);
            ] );
      ]
    | None -> [])

let replicate_summary_json (s : Cellsim.Replicate.summary) =
  let scheme (a : Cellsim.Replicate.scheme_agg) =
    J.Obj
      [
        ( "scheme",
          J.Str (Cellsim.Sim.scheme_to_string a.Cellsim.Replicate.scheme) );
        ("calls", J.int a.Cellsim.Replicate.calls);
        ("devices_sought", J.int a.Cellsim.Replicate.devices_sought);
        ("cells_paged", J.int a.Cellsim.Replicate.cells_paged);
        ("expected_paging", J.Num a.Cellsim.Replicate.expected_paging);
        ("rounds_used", J.int a.Cellsim.Replicate.rounds_used);
        ("mean_cells_per_call", J.Num a.Cellsim.Replicate.mean_cells_per_call);
        ("retries", J.int a.Cellsim.Replicate.retries);
        ("escalations", J.int a.Cellsim.Replicate.escalations);
        ("residual_misses", J.int a.Cellsim.Replicate.residual_misses);
      ]
  in
  J.Obj
    [
      ("replicas", J.int s.Cellsim.Replicate.replicas);
      ("total_calls", J.int s.Cellsim.Replicate.total_calls);
      ("skipped_calls", J.int s.Cellsim.Replicate.skipped_calls);
      ("moves", J.int s.Cellsim.Replicate.moves);
      ("updates", J.int s.Cellsim.Replicate.updates);
      ("per_scheme", J.Arr (List.map scheme s.Cellsim.Replicate.per_scheme));
    ]

(* Parallelism degree: the flag wins, else CONFCALL_DOMAINS, else 1
   (the sequential code path). Both sources are validated here, at the
   CLI boundary: 0, negative, oversized and non-numeric values exit 2
   with a message naming the flag or the environment variable, instead
   of raising inside [Exec.Pool] (or, worse, being silently ignored, as
   a malformed CONFCALL_DOMAINS used to be). *)
let effective_domains = function
  | Some n when n >= 1 && n <= Exec.Pool.max_domains -> n
  | Some n ->
    invalid_arg
      (Printf.sprintf "--domains must be an integer in [1, %d], got %d"
         Exec.Pool.max_domains n)
  | None ->
    (match Sys.getenv_opt Exec.Pool.env_var with
     | None -> 1
     | Some raw ->
       (match int_of_string_opt (String.trim raw) with
        | Some n when n >= 1 && n <= Exec.Pool.max_domains -> n
        | Some n ->
          invalid_arg
            (Printf.sprintf "%s must be in [1, %d], got %d" Exec.Pool.env_var
               Exec.Pool.max_domains n)
        | None ->
          invalid_arg
            (Printf.sprintf "%s must be a positive integer, got %S"
               Exec.Pool.env_var raw)))

(* Run [f] with a pool when more than one domain is asked for; [None]
   keeps every call site on the exact sequential path of old. *)
let with_domains domains f =
  if domains > 1 then Exec.Pool.with_pool ~domains (fun p -> f (Some p))
  else f None

(* ---------------- observability ----------------

   [--metrics-out FILE] / [--trace-out FILE] enable the default
   registry/tracer for the duration of the command and write the
   exposition on the way out. Extension selects the metrics format:
   .prom / .txt mean Prometheus text, anything else JSON. A write
   failure is a usage error naming the flag, under the usual exit-2
   contract. *)

let obs_write ~flag path content =
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc content)
  with Sys_error msg ->
    (* [msg] already names the path. *)
    invalid_arg (Printf.sprintf "%s: %s" flag msg)

let with_obs ~metrics_out ~trace_out f =
  if metrics_out <> None then Obs.Metrics.set_enabled Obs.Metrics.default true;
  if trace_out <> None then Obs.Trace.set_enabled Obs.Trace.default true;
  let result = f () in
  Option.iter
    (fun path ->
      let body =
        if
          Filename.check_suffix path ".prom"
          || Filename.check_suffix path ".txt"
        then Obs.Metrics.to_prometheus Obs.Metrics.default
        else Obs.Metrics.to_json Obs.Metrics.default ^ "\n"
      in
      obs_write ~flag:"--metrics-out" path body)
    metrics_out;
  Option.iter
    (fun path ->
      obs_write ~flag:"--trace-out" path
        (Obs.Trace.to_json Obs.Trace.default ^ "\n"))
    trace_out;
  result

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Enable the metrics registry and write its exposition to \
              $(docv) on exit: Prometheus text when $(docv) ends in \
              .prom or .txt, JSON otherwise.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Enable the span tracer and write the collected spans as \
              JSON to $(docv) on exit.")

(* ---------------- generate ---------------- *)

let dist_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "uniform" | "zipf" | "simplex" | "geometric" -> Ok s
    | _ -> Error (`Msg "distribution must be uniform|zipf|simplex|geometric")
  in
  Arg.conv (parse, Format.pp_print_string)

let make_instance ~dist ~skew rng ~m ~c ~d =
  match dist with
  | "uniform" -> Instance.all_uniform ~m ~c ~d
  | "zipf" -> Instance.random_zipf rng ~s:skew ~m ~c ~d
  | "geometric" ->
    Instance.random rng ~m ~c ~d ~gen:(fun rng c ->
        Prob.Dist.shuffled rng (Prob.Dist.geometric ~ratio:(1.0 /. skew) c))
  | _ -> Instance.random_uniform_simplex rng ~m ~c ~d

let generate m c d dist seed skew =
  guard @@ fun () ->
  let rng = Prob.Rng.create ~seed in
  let inst = make_instance ~dist ~skew rng ~m ~c ~d in
  print_string (Instance.to_string inst)

let generate_cmd =
  let m =
    Arg.(value & opt int 2 & info [ "m"; "devices" ] ~doc:"Number of devices.")
  in
  let c =
    Arg.(value & opt int 16 & info [ "c"; "cells" ] ~doc:"Number of cells.")
  in
  let d =
    Arg.(value & opt int 3 & info [ "d"; "delay" ] ~doc:"Delay budget (rounds).")
  in
  let dist =
    Arg.(
      value
      & opt dist_conv "simplex"
      & info [ "dist" ] ~doc:"Row distribution: uniform|zipf|simplex|geometric.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let skew =
    Arg.(value & opt float 1.1 & info [ "skew" ] ~doc:"Zipf exponent / geometric slope.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random instance on stdout")
    Term.(const generate $ m $ c $ d $ dist $ seed $ skew)

(* ---------------- request flags ----------------

   The flags of a solve request, each defined once on the library's own
   parser and shared by every command that takes it, so a bad value
   fails the same way everywhere: as a usage error before anything is
   read, written or connected. A parsed value keeps the text as typed:
   `call` and `loadgen` put that text in the frame, so the daemon parses
   exactly what was typed (the spec printer rounds robust radii). What
   depends on the instance or the value's range (the objective against
   m, a positive and finite budget) is [Runner.validate], which each
   command calls before any output or side effect. *)

let request_conv parse =
  let parse s =
    match parse s with Ok v -> Ok (s, v) | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

let objective_arg =
  Arg.(
    value
    & opt (some (request_conv Objective.of_string)) None
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"all (conference, the default) | any (yellow pages) | <k> \
              (at least k devices).")

(* [default] is the spec a command sends or runs when the flag is
   absent. *)
let solver_arg default =
  Arg.(
    value
    & opt (some (request_conv Solver.spec_of_string)) default
    & info [ "solver" ] ~docv:"SPEC"
        ~doc:"greedy|page-all|exhaustive|bnb|exact|local-search|class|\
              bandwidth-<b>|robust-<eps>[:<tv>].")

let chain_arg =
  Arg.(
    value
    & opt (some (request_conv Runner.chain_of_string)) None
    & info [ "chain" ] ~docv:"CHAIN"
        ~doc:"Fallback chain for the deadline runner: \
              default|fast|heuristic|exact or a comma-separated solver \
              list, e.g. bnb,local-search,greedy.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:"Wall-clock solve budget in milliseconds, positive and \
              finite: the deadline runner answers with the best strategy \
              its fallback chain finds within it.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let endpoints_arg =
  Arg.(
    value
    & opt (some (request_conv Client.endpoints_of_string)) None
    & info [ "endpoints" ] ~docv:"LIST"
        ~doc:"Comma-separated daemon endpoints (PORT, tcp:PORT, \
              unix:PATH or a socket path), ranked by observed health for \
              failover. Wins over --port/--socket.")

let hedge_after_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "hedge-after-ms" ] ~docv:"MS"
        ~doc:"Tail-latency hedging: when no answer arrived within \
              $(docv) ms, fire the request again at the next-best \
              endpoint; the first terminal answer wins (server-side \
              idempotency keeps it exactly-once).")

(* ---------------- solve ---------------- *)

let bounds_json (b : Uncertainty.bounds) =
  J.Obj [ ("lo", J.Num b.Uncertainty.lo); ("hi", J.Num b.Uncertainty.hi) ]

(* The winner's quality against the certified machinery: the Lemma
   3.1/3.4 lower bound and the e/(e−1) guarantee of Theorem 4.8 (proved
   for the greedy heuristic under Find_all; printed as the reference
   line for every winner). *)
type quality = {
  expected_paging : float;
  lower_bound : float;
  ratio_to_lower_bound : float;
  guarantee : float;  (* e/(e−1) ≈ 1.582 *)
  within_guarantee : bool;  (* ratio ≤ e/(e−1) + 1e-9 *)
}

let quality_of ~objective inst (outcome : Solver.outcome) =
  let lower_bound = Bounds.lower_bound ~objective inst in
  let ep = outcome.Solver.expected_paging in
  let ratio = if lower_bound > 0.0 then ep /. lower_bound else Float.nan in
  let guarantee = Greedy.approximation_factor in
  {
    expected_paging = ep;
    lower_bound;
    ratio_to_lower_bound = ratio;
    guarantee;
    within_guarantee = ratio <= guarantee +. 1e-9;
  }

(* The certificate printed with a strategy under the ball [u]: the
   ball, the strategy's interval-certified EP range and its exact
   worst-case EP. A runner winner passes [worst], the score its stage
   was re-ranked by, so it is computed once. *)
let certification ~objective ?worst u inst strategy =
  let bounds = Uncertainty.ep_bounds ~objective u inst strategy in
  let worst =
    match worst with
    | Some w -> w
    | None -> Uncertainty.robust_ep ~objective u inst strategy
  in
  (u, bounds, worst)

(* The report's reading of a run: the quality block for its winner
   and, in a re-ranking run, the winner's certification. The winner is
   the stage with the least worst-case EP, so that minimum is its
   score. *)
type runner_reading = {
  quality : quality option;
  robust : (Uncertainty.t * Uncertainty.bounds * float) option;
}

let read_run ~objective ~uncertainty inst (r : Runner.run_report) =
  let winner_robust_ep =
    List.fold_left
      (fun acc (s : Runner.stage_report) ->
        Option.fold ~none:acc ~some:(Float.min acc) s.Runner.robust_ep)
      infinity r.Runner.stages
  in
  match r.Runner.winner with
  | None -> { quality = None; robust = None }
  | Some (_, o) ->
    {
      quality = Some (quality_of ~objective inst o);
      robust =
        Option.map
          (fun u ->
            certification ~objective ~worst:winner_robust_ep u inst
              o.Solver.strategy)
          uncertainty;
    }

let runner_report_json (r : Runner.run_report) reading =
  let stage (s : Runner.stage_report) =
    J.Obj
      ([
         ("spec", J.Str (Solver.spec_to_string s.Runner.spec));
         ("status", J.Str (Runner.stage_status_to_string s.Runner.status));
         ("elapsed_ms", J.Num s.Runner.elapsed_ms);
       ]
      @ (match s.Runner.expected_paging with
         | Some ep -> [ ("expected_paging", J.Num ep) ]
         | None -> [])
      @
      match s.Runner.robust_ep with
      | Some rep -> [ ("robust_ep", J.Num rep) ]
      | None -> [])
  in
  let winner_fields =
    match r.Runner.winner with
    | Some (spec, o) ->
      [
        ("winner", J.Str (Solver.spec_to_string spec));
        ("strategy", J.int_rows (Strategy.groups o.Solver.strategy));
        ("expected_paging", J.Num o.Solver.expected_paging);
        ("exact", J.Bool o.Solver.exact);
      ]
    | None -> []
  in
  let quality_fields =
    match reading.quality with
    | Some q ->
      [
        ( "quality",
          J.Obj
            [
              ("lower_bound", J.Num q.lower_bound);
              ("ratio_to_lower_bound", J.Num q.ratio_to_lower_bound);
              ("guarantee", J.Num q.guarantee);
              ("within_guarantee", J.Bool q.within_guarantee);
            ] );
      ]
    | None -> []
  in
  let robust_fields =
    match reading.robust with
    | Some (u, bounds, worst) ->
      [
        ( "robust",
          J.Obj
            [
              ("uncertainty", J.Str (Uncertainty.to_string u));
              ("winner_robust_ep", J.Num worst);
              ("ep_bounds", bounds_json bounds);
            ] );
      ]
    | None -> []
  in
  let failure_fields =
    match r.Runner.failure with
    | Some e -> [ ("failure", J.Str (Runner.error_to_string e)) ]
    | None -> []
  in
  J.Obj
    ([
       ("chain", J.Str (Runner.chain_to_string r.Runner.chain));
       ("objective", J.Str (Objective.to_string r.Runner.objective));
       ( "budget_ms",
         match r.Runner.budget_ms with Some b -> J.Num b | None -> J.Null );
       ("stages", J.Arr (List.map stage r.Runner.stages));
       ("total_ms", J.Num r.Runner.total_ms);
     ]
    @ winner_fields @ quality_fields @ robust_fields @ failure_fields)

(* One line per stage, then the winner, its quality and certification. *)
let pp_runner_report fmt ((r : Runner.run_report), reading) =
  let open Format in
  fprintf fmt "chain: %s@," (Runner.chain_to_string r.Runner.chain);
  fprintf fmt "objective: %s@," (Objective.to_string r.Runner.objective);
  (match r.Runner.budget_ms with
   | Some b -> fprintf fmt "budget: %.1f ms@," b
   | None -> fprintf fmt "budget: none@,");
  List.iter
    (fun (s : Runner.stage_report) ->
      fprintf fmt "  %-14s %8.2f ms  %s%s%s%s@,"
        (Solver.spec_to_string s.Runner.spec)
        s.Runner.elapsed_ms
        (Runner.stage_status_to_string s.Runner.status)
        (match s.Runner.expected_paging with
         | Some ep -> sprintf "  EP=%.6f" ep
         | None -> "")
        (match s.Runner.robust_ep with
         | Some rep -> sprintf "  worst-EP=%.6f" rep
         | None -> "")
        (if s.Runner.raced then "  [raced]" else ""))
    r.Runner.stages;
  (match r.Runner.winner with
   | Some (spec, outcome) ->
     fprintf fmt "winner: %s (EP=%.6f%s)@,"
       (Solver.spec_to_string spec)
       outcome.Solver.expected_paging
       (if outcome.Solver.exact then ", exact" else "")
   | None -> fprintf fmt "winner: none@,");
  (match reading.quality with
   | Some q ->
     fprintf fmt
       "quality: EP=%.6f  LB=%.6f  ratio=%.4f  e/(e-1)=%.4f  %s@,"
       q.expected_paging q.lower_bound q.ratio_to_lower_bound q.guarantee
       (if q.within_guarantee then "within guarantee"
        else "above guarantee line")
   | None -> ());
  (match reading.robust with
   | Some (u, bounds, worst) ->
     fprintf fmt
       "robust (%s): worst-case EP=%.6f  certified EP in [%.6f, %.6f]@,"
       (Uncertainty.to_string u) worst bounds.Uncertainty.lo
       bounds.Uncertainty.hi
   | None -> ());
  (match r.Runner.failure with
   | Some e -> fprintf fmt "failure: %s@," (Runner.error_to_string e)
   | None -> ());
  fprintf fmt "total: %.2f ms" r.Runner.total_ms

let solve_budgeted inst objective json budget_ms chain uncertainty domains =
  let report =
    with_domains domains (fun pool ->
        Runner.run ~objective ?budget_ms ?uncertainty ~chain ?pool inst)
  in
  let reading = read_run ~objective ~uncertainty inst report in
  if json then print_json (runner_report_json report reading)
  else begin
    Format.printf "@[<v>%a@]@." pp_runner_report (report, reading);
    match report.Runner.winner with
    | Some (_, o) ->
      Printf.printf "strategy: %s\n" (Strategy.to_string o.Solver.strategy)
    | None -> ()
  end;
  match report.Runner.winner with
  | Some _ -> ()
  | None ->
    Printf.eprintf "confcall: error: %s\n"
      (match report.Runner.failure with
       | Some e -> Runner.error_to_string e
       | None -> "no result");
    exit 2

let solve path spec objective verbose json budget_ms chain eps tv samples
    confidence robust domains metrics_out trace_out =
  guard @@ fun () ->
  with_obs ~metrics_out ~trace_out @@ fun () ->
  let domains = effective_domains domains in
  let inst = read_instance path in
  let spec = Option.map snd spec and chain = Option.map snd chain in
  let objective = Option.fold ~none:Objective.Find_all ~some:snd objective in
  (* The perturbation ball: an explicit --eps wins; --samples derives a
     DKW-style per-entry radius at --confidence; --robust alone uses
     the same default radius as the "robust" solver spec. *)
  let eff_eps =
    match (eps, samples) with
    | Some e, _ -> Some e
    | None, Some n -> Some (Prob.Estimate.dkw_eps ~n ~confidence)
    | None, None -> if robust || tv <> None then Some 0.05 else None
  in
  let uncertainty = Option.map (fun e -> Uncertainty.uniform ?tv e) eff_eps in
  Result.iter_error invalid_arg
    (Runner.validate ~objective ?budget_ms ?uncertainty ~m:inst.Instance.m ());
  match (budget_ms, chain) with
  | (Some _, _ | None, Some _) ->
    (* Runner path: a budget or an explicit chain was requested. With a
       budget but no chain, an explicit --solver becomes a one-stage
       chain (plus the Page_all baseline); otherwise the default chain.
       With --robust the uncertainty flows into the runner, which
       re-ranks the chain by worst-case EP and the winner is certified;
       without it the report points at --robust. *)
    let chain = Runner.resolve_chain ~chain ~spec in
    if robust then
      solve_budgeted inst objective json budget_ms chain uncertainty domains
    else begin
      solve_budgeted inst objective json budget_ms chain None domains;
      match uncertainty with
      | Some u when not json ->
        Printf.printf "uncertainty (%s): see `solve --robust` for \
                       worst-case ranking\n"
          (Uncertainty.to_string u)
      | _ -> ()
    end
  | None, None ->
    let spec =
      match (robust, spec) with
      | true, _ ->
        let u = Option.get uncertainty in
        Solver.Robust { eps = u.Uncertainty.eps; tv = u.Uncertainty.tv }
      | false, Some spec -> spec
      | false, None -> Solver.Greedy
    in
    (* Direct path: report the minor-heap words the solve itself
       allocated. alloc_words covers the whole call (arena creation,
       binding and result boxing included — it is the honest per-call
       figure); the steady-state zero-allocation guarantee on the run_*
       cores is gated by the test suite and bench e30. *)
    let words_before = Gc.minor_words () in
    let outcome = Solver.solve ~objective spec inst in
    let alloc_words = int_of_float (Gc.minor_words () -. words_before) in
    let cert =
      Option.map
        (fun u -> certification ~objective u inst outcome.Solver.strategy)
        uncertainty
    in
    if json then
      print_json
        (J.Obj
           ([
              ("solver", J.Str (Solver.spec_to_string spec));
              ( "strategy",
                J.int_rows (Strategy.groups outcome.Solver.strategy) );
              ("expected_paging", J.Num outcome.Solver.expected_paging);
              ("exact", J.Bool outcome.Solver.exact);
              ( "expected_rounds",
                J.Num
                  (Strategy.expected_rounds ~objective inst
                     outcome.Solver.strategy) );
              ("lower_bound", J.Num (Bounds.lower_bound ~objective inst));
              ("page_all_cost", J.int inst.Instance.c);
              ("alloc_words", J.int alloc_words);
            ]
           @
           match cert with
           | Some (u, b, worst) ->
             [
               ("uncertainty", J.Str (Uncertainty.to_string u));
               ("ep_bounds", bounds_json b);
               ("robust_ep", J.Num worst);
             ]
           | None -> []))
    else begin
      Printf.printf "strategy: %s\n" (Strategy.to_string outcome.Solver.strategy);
      Printf.printf "expected paging: %.6f%s\n" outcome.Solver.expected_paging
        (if outcome.Solver.exact then " (optimal)" else "");
      (match cert with
       | Some (u, b, worst) ->
         Printf.printf "uncertainty (%s): certified EP in [%.6f, %.6f], \
                        worst-case EP %.6f\n"
           (Uncertainty.to_string u) b.Uncertainty.lo b.Uncertainty.hi worst
       | None -> ());
      if verbose then begin
        Printf.printf "expected rounds: %.6f\n"
          (Strategy.expected_rounds ~objective inst outcome.Solver.strategy);
        Printf.printf "lower bound: %.6f\n" (Bounds.lower_bound ~objective inst);
        Printf.printf "page-all cost: %d\n" inst.Instance.c
      end
    end

let file_arg =
  Arg.(
    value
    & pos 0 string "-"
    & info [] ~docv:"FILE" ~doc:"Instance file (\"-\" for stdin).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Parallelism degree: race chain stages / shard sweeps / \
              replicate simulations across N domains. Defaults to \
              $(b,CONFCALL_DOMAINS), else 1 (sequential, bit-identical \
              to previous releases). Results are independent of N.")

let solve_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"More output.") in
  let eps =
    Arg.(
      value
      & opt (some float) None
      & info [ "eps" ]
          ~doc:"Per-entry perturbation radius of the uncertainty ball; \
                prints certified EP bounds for the returned strategy.")
  in
  let tv =
    Arg.(
      value
      & opt (some float) None
      & info [ "tv" ]
          ~doc:"Total-variation budget per device row (default unlimited).")
  in
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ]
          ~doc:"Sample count behind the instance's rows; derives $(b,--eps) \
                from the DKW bound when no explicit radius is given.")
  in
  let confidence =
    Arg.(
      value
      & opt float 0.95
      & info [ "confidence" ]
          ~doc:"Confidence level for the $(b,--samples)-derived radius.")
  in
  let robust =
    Arg.(
      value & flag
      & info [ "robust" ]
          ~doc:"Rank candidates by worst-case expected paging over the \
                uncertainty ball instead of nominal EP (chains re-rank in \
                the runner; otherwise the robust solver runs its \
                candidate list).")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an instance")
    Term.(
      const solve $ file_arg $ solver_arg None $ objective_arg $ verbose
      $ json_arg $ budget_arg $ chain_arg $ eps $ tv $ samples $ confidence
      $ robust $ domains_arg $ metrics_out_arg $ trace_out_arg)

(* ---------------- sweep ---------------- *)

(* A journaled, resumable runner sweep over generated instances. Each
   work item's id and payload are deterministic functions of the flags
   (timings never enter the journal), so a killed sweep restarted with
   --resume appends exactly the lines the uninterrupted run would have
   written: the journal is byte-identical. *)
let sweep m c d dist skew seeds objective budget_ms chain journal_path resume
    domains metrics_out trace_out =
  guard @@ fun () ->
  with_obs ~metrics_out ~trace_out @@ fun () ->
  (* The shape is checked before the journal is touched: a bad flag
     must not leave an empty journal behind that refuses the corrected
     rerun. *)
  if m < 1 then invalid_arg (Printf.sprintf "-m must be >= 1, got %d" m);
  if c < 1 then invalid_arg (Printf.sprintf "-c must be >= 1, got %d" c);
  if d < 1 || d > c then
    invalid_arg (Printf.sprintf "-d must be in [1, c = %d], got %d" c d);
  let objective = Option.fold ~none:Objective.Find_all ~some:snd objective in
  Result.iter_error invalid_arg (Runner.validate ~objective ?budget_ms ~m ());
  let chain = Option.fold ~none:Runner.default_chain ~some:snd chain in
  let domains = effective_domains domains in
  if Sys.file_exists journal_path && not resume then
    invalid_arg
      (Printf.sprintf
         "journal %s already exists; pass --resume to continue it" journal_path);
  let journal = Journal.load_or_create journal_path in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () ->
      let items =
        List.map
          (fun seed ->
            let id =
              Printf.sprintf "%s/m%d/c%d/d%d/%s/seed%d"
                (Objective.to_string objective)
                m c d dist seed
            in
            let compute () =
              let rng = Prob.Rng.create ~seed in
              let inst = make_instance ~dist ~skew rng ~m ~c ~d in
              (* Shards run on pool domains; each reuses its own arena
                 across the seeds it processes. *)
              let report = Runner.run ~objective ?budget_ms ~chain inst in
              match report.Runner.winner with
              | Some (spec, o) ->
                Printf.sprintf "winner=%s ep=%.9f exact=%b"
                  (Solver.spec_to_string spec)
                  o.Solver.expected_paging o.Solver.exact
              | None ->
                Printf.sprintf "failed=%s"
                  (match report.Runner.failure with
                   | Some e -> Runner.error_to_string e
                   | None -> "unknown")
            in
            { Sweep.id; compute })
          seeds
      in
      let outcomes =
        with_domains domains (fun pool -> Sweep.run ?pool ~journal items)
      in
      List.iter
        (fun { Sweep.id; payload; status } ->
          Printf.printf "%-4s %s\t%s\n"
            (match status with
             | `Ran -> "ran"
             | `Replayed -> "skip"
             | `Recovered -> "rec")
            id payload)
        outcomes;
      Printf.printf "journal %s: %d items\n" journal_path (Journal.count journal))

let sweep_cmd =
  let m =
    Arg.(value & opt int 3 & info [ "m"; "devices" ] ~doc:"Number of devices.")
  in
  let c =
    Arg.(value & opt int 20 & info [ "c"; "cells" ] ~doc:"Number of cells.")
  in
  let d =
    Arg.(value & opt int 3 & info [ "d"; "delay" ] ~doc:"Delay budget (rounds).")
  in
  let dist =
    Arg.(
      value
      & opt dist_conv "simplex"
      & info [ "dist" ] ~doc:"Row distribution: uniform|zipf|simplex|geometric.")
  in
  let skew =
    Arg.(
      value & opt float 1.1
      & info [ "skew" ] ~doc:"Zipf exponent / geometric slope.")
  in
  let seeds =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4; 5 ]
      & info [ "seeds" ] ~doc:"PRNG seeds, one work item each.")
  in
  let journal =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:"Append-only journal file recording completed items.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Continue an existing journal, skipping completed items.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Journaled runner sweep over generated instances (resumable)")
    Term.(
      const sweep $ m $ c $ d $ dist $ skew $ seeds $ objective_arg $ budget_arg
      $ chain_arg $ journal $ resume $ domains_arg $ metrics_out_arg
      $ trace_out_arg)

(* ---------------- compare ---------------- *)

let compare_solvers path =
  guard @@ fun () ->
  let inst = read_instance path in
  Printf.printf "m=%d c=%d d=%d\n" inst.Instance.m inst.Instance.c
    inst.Instance.d;
  Printf.printf "%-12s %12s %8s\n" "solver" "EP" "exact";
  List.iter
    (fun spec ->
      match Solver.solve spec inst with
      | outcome ->
        Printf.printf "%-12s %12.6f %8s\n"
          (Solver.spec_to_string spec)
          outcome.Solver.expected_paging
          (if outcome.Solver.exact then "yes" else "no")
      | exception Invalid_argument reason ->
        Printf.printf "%-12s %12s %8s  (%s)\n"
          (Solver.spec_to_string spec)
          "-" "-" reason)
    [ Solver.Page_all; Solver.Greedy; Solver.Best_exact ];
  Printf.printf "%-12s %12.6f\n" "lower-bound" (Bounds.lower_bound inst)

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare solvers on one instance")
    Term.(const compare_solvers $ file_arg)

(* ---------------- evaluate ---------------- *)

let parse_strategy s =
  let groups =
    String.split_on_char '|' s
    |> List.map (fun g ->
           String.split_on_char ' ' (String.trim g)
           |> List.filter (fun tok -> tok <> "")
           |> List.map (fun tok ->
                  (* [int_of_string] would raise bare [Failure
                     "int_of_string"], which [guard] prints verbatim —
                     useless. Name the flag and the offending token. *)
                  match int_of_string_opt tok with
                  | Some cell -> cell
                  | None ->
                    invalid_arg
                      (Printf.sprintf
                         "--strategy: bad cell index %S (expected \
                          space-separated integers in '|'-separated \
                          groups, e.g. \"0 1 2|3 4|5\")"
                         tok))
           |> Array.of_list)
    |> Array.of_list
  in
  Strategy.create groups

let evaluate path strategy_s objective =
  guard @@ fun () ->
  let inst = read_instance path in
  let objective = Option.fold ~none:Objective.Find_all ~some:snd objective in
  Result.iter_error invalid_arg
    (Runner.validate ~objective ~m:inst.Instance.m ());
  let strategy = parse_strategy strategy_s in
  Printf.printf "expected paging: %.6f\n"
    (Strategy.expected_paging ~objective inst strategy);
  Printf.printf "expected rounds: %.6f\n"
    (Strategy.expected_rounds ~objective inst strategy)

let evaluate_cmd =
  let strategy =
    Arg.(
      required
      & opt (some string) None
      & info [ "strategy" ] ~docv:"GROUPS"
          ~doc:"Strategy as cell groups, e.g. \"0 1 2|3 4|5\".")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Expected paging of an explicit strategy")
    Term.(const evaluate $ file_arg $ strategy $ objective_arg)

(* ---------------- simulate ---------------- *)

let reporting_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Cellsim.Reporting.of_string s)
  in
  Arg.conv
    ( parse,
      fun ppf p -> Format.pp_print_string ppf (Cellsim.Reporting.to_string p) )

let scenario_conv =
  let parse s =
    match Cellsim.Scenario.find s with
    | Ok build -> Ok (Some build)
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<scenario>")

let retry_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Cellsim.Faults.retry_of_string s)
  in
  Arg.conv
    ( parse,
      fun ppf r -> Format.pp_print_string ppf (Cellsim.Faults.retry_to_string r)
    )

(* Combine the fault flags into a [Faults.t option]. [None] when every
   knob is at its clean default so a scenario preset's own fault model
   (e.g. degraded-downtown) is not clobbered; any explicit fault flag
   replaces the whole model. *)
let build_faults page_loss detect_q outage_rate outage_repair report_loss
    report_delay retry =
  let f =
    {
      Cellsim.Faults.page_loss;
      detect_q;
      outage_rate;
      outage_repair;
      report_loss;
      report_delay;
      retry;
    }
  in
  (* Exact comparison with the flag defaults, not [Faults.is_clean]:
     an out-of-range value like a negative rate must reach [Sim.run]'s
     validation rather than silently fold back to the clean run. *)
  if
    page_loss = 0.0 && detect_q = 1.0 && outage_rate = 0.0
    && report_loss = 0.0 && report_delay = 0.0
    && retry = Cellsim.Faults.No_retry
  then None
  else Some f

let residence_conv =
  let parse s =
    Result.map_error
      (fun e -> `Msg e)
      (Cellsim.Mobility.residence_of_string s)
  in
  Arg.conv
    ( parse,
      fun ppf r ->
        Format.pp_print_string ppf (Cellsim.Mobility.residence_to_string r) )

(* Combine the aging flags into a [Sim.aging_config option]. The aged
   schemes and re-profiling only make sense against a dwell law, so the
   dependent flags demand [--residence]. *)
let build_aging residence age_cap reprofile_age age_robust aged =
  match residence with
  | Some law ->
    Some
      {
        Cellsim.Sim.default_aging with
        residence = law;
        age_cap;
        drive_motion = true;
        reprofile_age;
        confidence =
          Option.value age_robust
            ~default:Cellsim.Sim.default_aging.Cellsim.Sim.confidence;
      }
  | None ->
    if aged || age_robust <> None || reprofile_age <> None then
      invalid_arg
        "--aged, --age-robust and --reprofile-age require --residence";
    None

let print_sim_result json result =
  if json then print_json (sim_result_json result)
  else Format.printf "%a@." Cellsim.Sim.pp_result result

(* One run prints the plain result; [--replicas n] runs n independent
   seeded copies (in parallel when [--domains] allows) and prints the
   deterministic aggregate. *)
let run_sim_config ~replicas ~domains json config =
  if replicas <= 1 then print_sim_result json (Cellsim.Sim.run config)
  else begin
    let summary =
      with_domains domains (fun pool ->
          Cellsim.Replicate.run_summary ?pool ~replicas config)
    in
    if json then print_json (replicate_summary_json summary)
    else Format.printf "@[<v>%a@]@." Cellsim.Replicate.pp_summary summary
  end

let simulate_custom rows cols users rate duration seed block d_list reporting
    diffuse call_duration faults aging ~aged ~age_robust =
  let hex = Cellsim.Hex.create ~rows ~cols in
  let selective d =
    if age_robust then Cellsim.Sim.Selective_robust d
    else if aged then Cellsim.Sim.Selective_aged d
    else if diffuse then Cellsim.Sim.Selective_diffuse d
    else Cellsim.Sim.Selective d
  in
  let schemes = Cellsim.Sim.Blanket :: List.map selective d_list in
  let config =
    {
      Cellsim.Sim.hex;
      mobility = Cellsim.Mobility.random_walk hex ~stay:0.4;
      areas = Cellsim.Location_area.grid hex ~block_rows:block ~block_cols:block;
      users;
      traffic =
        Cellsim.Traffic.create ~rate
          ~group_size:(Cellsim.Traffic.Uniform_range (2, 4))
          ~users;
      schemes;
      reporting;
      mobility_schedule = [];
      call_duration;
      track_ongoing = true;
      faults;
      estimator = Cellsim.Sim.Live;
      aging;
      profile_decay = 0.9;
      profile_smoothing = 0.05;
      duration;
      seed;
    }
  in
  config

let simulate rows cols users rate duration seed block d_list reporting diffuse
    call_duration scenario page_loss detect_q outage_rate outage_repair
    report_loss report_delay retry residence age_cap reprofile_age age_robust
    aged json replicas domains metrics_out trace_out =
  guard @@ fun () ->
  with_obs ~metrics_out ~trace_out @@ fun () ->
  if replicas < 1 then invalid_arg "--replicas must be >= 1";
  let domains = effective_domains domains in
  let faults =
    build_faults page_loss detect_q outage_rate outage_repair report_loss
      report_delay retry
  in
  let aging =
    build_aging residence age_cap reprofile_age age_robust aged
  in
  let config =
    match scenario with
    | Some build ->
      let config = build ?seed:(Some seed) () in
      let config =
        match faults with
        | None -> config
        | Some _ -> { config with Cellsim.Sim.faults }
      in
      (* An explicit residence law overrides the preset's aging layer
         (the preset keeps its schemes). *)
      (match aging with
       | None -> config
       | Some _ -> { config with Cellsim.Sim.aging })
    | None ->
      simulate_custom rows cols users rate duration seed block d_list reporting
        diffuse call_duration faults aging ~aged
        ~age_robust:(age_robust <> None)
  in
  run_sim_config ~replicas ~domains json config

let simulate_cmd =
  let rows = Arg.(value & opt int 8 & info [ "rows" ] ~doc:"Hex field rows.") in
  let cols = Arg.(value & opt int 8 & info [ "cols" ] ~doc:"Hex field cols.") in
  let users = Arg.(value & opt int 64 & info [ "users" ] ~doc:"User count.") in
  let rate = Arg.(value & opt float 0.5 & info [ "rate" ] ~doc:"Calls per time unit.") in
  let duration =
    Arg.(value & opt float 400.0 & info [ "duration" ] ~doc:"Simulated time units.")
  in
  let seed = Arg.(value & opt int 2002 & info [ "seed" ] ~doc:"PRNG seed.") in
  let block =
    Arg.(value & opt int 3 & info [ "block" ] ~doc:"Location-area block size.")
  in
  let ds =
    Arg.(
      value
      & opt (list int) [ 2; 3 ]
      & info [ "delays" ] ~doc:"Selective-scheme delay budgets, e.g. 2,3,5.")
  in
  let reporting =
    Arg.(
      value
      & opt reporting_conv Cellsim.Reporting.Area
      & info [ "reporting" ]
          ~doc:"Reporting policy: area | movement-<k> | distance-<k> | time-<k>.")
  in
  let diffuse =
    Arg.(
      value & flag
      & info [ "diffuse" ]
          ~doc:"Estimate locations by mobility-model diffusion instead of \
                decayed visit counts.")
  in
  let call_duration =
    Arg.(
      value & opt float 0.0
      & info [ "call-duration" ]
          ~doc:"Mean call length (0 = instantaneous calls).")
  in
  let scenario =
    Arg.(
      value
      & opt scenario_conv None
      & info [ "scenario" ]
          ~doc:"Preset: suburb | commuter-day | drifting-commuter | busy-campus | \
                degraded-downtown | residence-exp | residence-pareto \
                (overrides the other simulation options; explicit fault \
                and residence flags still apply on top).")
  in
  let page_loss =
    Arg.(
      value & opt float 0.0
      & info [ "page-loss" ]
          ~doc:"Probability a transmitted page is lost in the channel.")
  in
  let detect_q =
    Arg.(
      value & opt float 1.0
      & info [ "detect-q" ]
          ~doc:"Per-round probability a paged, present device responds \
                (Section 5's q).")
  in
  let outage_rate =
    Arg.(
      value & opt float 0.0
      & info [ "outage-rate" ]
          ~doc:"Per-tick hazard of a cell going down.")
  in
  let outage_repair =
    Arg.(
      value & opt float 1.0
      & info [ "outage-repair" ]
          ~doc:"Mean ticks until a downed cell is repaired.")
  in
  let report_loss =
    Arg.(
      value & opt float 0.0
      & info [ "report-loss" ]
          ~doc:"Probability a location report is lost.")
  in
  let report_delay =
    Arg.(
      value & opt float 0.0
      & info [ "report-delay" ]
          ~doc:"Mean delivery delay (ticks) of surviving location reports \
                (0 = instantaneous).")
  in
  let retry =
    Arg.(
      value
      & opt retry_conv Cellsim.Faults.No_retry
      & info [ "retry" ]
          ~doc:"Re-paging policy: none | repeat:<cycles>[:<backoff>] | \
                escalate:<after>[:blanket|universe].")
  in
  let residence =
    Arg.(
      value
      & opt (some residence_conv) None
      & info [ "residence" ] ~docv:"LAW"
          ~doc:"Cell residence-time law: exp:<mean> | \
                pareto:<alpha>:<scale> | zipf:<s>:<cutoff>. Enables the \
                aging layer: ground truth moves by the semi-Markov walk \
                under this law and profile rows age accordingly.")
  in
  let age_cap =
    Arg.(
      value & opt int 30
      & info [ "profile-age-cap" ] ~docv:"N"
          ~doc:"Clamp profile ages to N ticks before belief evolution \
                (0 freezes snapshots). Requires --residence.")
  in
  let reprofile_age =
    Arg.(
      value
      & opt (some int) None
      & info [ "reprofile-age" ] ~docv:"K"
          ~doc:"Poll call participants whose profile is older than K \
                ticks before planning (age-triggered re-profiling). \
                Requires --residence.")
  in
  let age_robust =
    Arg.(
      value
      & opt (some float) None
      & info [ "age-robust" ] ~docv:"CONF"
          ~doc:"Plan selective schemes by worst-case EP over a \
                staleness-inflated uncertainty ball (DKW radius at \
                confidence CONF + residence-model churn). Requires \
                --residence.")
  in
  let aged =
    Arg.(
      value & flag
      & info [ "aged" ]
          ~doc:"Age profile rows through the residence-time kernel \
                before planning (selective schemes become aged-d<k>). \
                Requires --residence.")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Run N independent replicas (seeds seed..seed+N-1) and \
                print the aggregated metrics; with --domains they run \
                in parallel, with identical results either way.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the end-to-end cellular simulation")
    Term.(
      const simulate $ rows $ cols $ users $ rate $ duration $ seed $ block
      $ ds $ reporting $ diffuse $ call_duration $ scenario $ page_loss
      $ detect_q $ outage_rate $ outage_repair $ report_loss $ report_delay
      $ retry $ residence $ age_cap $ reprofile_age $ age_robust $ aged
      $ json_arg $ replicas $ domains_arg $ metrics_out_arg $ trace_out_arg)

(* ---------------- analyze ---------------- *)

let analyze path max_d =
  guard @@ fun () ->
  if max_d < 1 then
    invalid_arg (Printf.sprintf "--max-d must be >= 1, got %d" max_d);
  let inst = read_instance path in
  let r = Greedy.solve inst in
  let dist = Analysis.cost_distribution inst r.Order_dp.strategy in
  Printf.printf "strategy: %s\n" (Strategy.to_string r.Order_dp.strategy);
  Printf.printf "cost distribution: mean %.3f sd %.3f p50 %.0f p90 %.0f p99 %.0f\n"
    dist.Analysis.mean dist.Analysis.stddev
    (Analysis.quantile dist 0.5)
    (Analysis.quantile dist 0.9)
    (Analysis.quantile dist 0.99);
  Array.iteri
    (fun i p ->
      Printf.printf "  P[cost = %3.0f] = %.4f\n" dist.Analysis.support.(i) p)
    dist.Analysis.probabilities;
  let max_d = Stdlib.min max_d inst.Instance.c in
  Printf.printf "delay/paging frontier (d = 1..%d):\n" max_d;
  Array.iteri
    (fun i (rounds, ep) ->
      Printf.printf "  d=%-2d  E[rounds] %6.3f  EP %8.3f\n" (i + 1) rounds ep)
    (Analysis.delay_paging_frontier inst ~max_d)

let analyze_cmd =
  let max_d =
    Arg.(value & opt int 8 & info [ "max-d" ] ~doc:"Frontier sweep upper bound.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Cost distribution and delay/paging frontier of an instance")
    Term.(const analyze $ file_arg $ max_d)

(* ---------------- hardness ---------------- *)

let hardness sizes =
  guard @@ fun () ->
  (* Partition_to_qp1's precondition, checked before anything prints. *)
  if
    sizes = []
    || List.length sizes mod 2 <> 0
    || List.exists (fun s -> s <= 0) sizes
  then
    invalid_arg
      (Printf.sprintf
         "--sizes must be a non-empty, even-length list of positive \
          integers, got %S"
         (String.concat "," (List.map string_of_int sizes)));
  let sizes = Array.of_list sizes in
  Printf.printf "Partition instance: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int sizes)));
  (match Hardness.partition_brute sizes with
   | Some p ->
     Printf.printf "brute force: positive (subset indices %s)\n"
       (String.concat " " (List.map string_of_int p))
   | None -> print_endline "brute force: negative");
  let qp1 = Hardness.partition_to_qp1 sizes in
  Printf.printf "reduced Quasipartition1 instance: %d sizes\n"
    (Array.length qp1);
  if Array.length qp1 <= 12 then begin
    let via = Hardness.partition_answer_via_chain sizes in
    Printf.printf
      "decided via Conference Call oracle (m=2, d=2, c=%d): %s\n"
      (Array.length qp1)
      (if via then "positive" else "negative");
    let lb = Hardness.qp1_lower_bound ~c:(Array.length qp1) in
    Printf.printf "Lemma 3.2 target LB = %s = %.6f\n"
      (Numeric.Rational.to_string lb)
      (Numeric.Rational.to_float lb)
  end
  else
    print_endline
      "(reduced instance too large for the exact Conference Call oracle)"

let hardness_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4 ]
      & info [ "sizes" ] ~doc:"Partition sizes, e.g. 1,2,3,4.")
  in
  Cmd.v
    (Cmd.info "hardness"
       ~doc:"Demonstrate the NP-hardness reduction of Section 3")
    Term.(const hardness $ sizes)

(* ---------------- serve ---------------- *)

let listen_of_flags port socket =
  match (port, socket) with
  | Some p, None when p >= 0 && p <= 65535 -> Serve.Server.Tcp p
  | Some p, None ->
    invalid_arg (Printf.sprintf "--port must be in [0, 65535], got %d" p)
  | None, Some path -> Serve.Server.Unix_path path
  | Some _, Some _ -> invalid_arg "pass exactly one of --port or --socket"
  | None, None -> invalid_arg "pass one of --port or --socket"

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on 127.0.0.1:$(docv) (0 picks an ephemeral port).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (or connect to) a Unix-domain socket at $(docv).")

let serve port socket domains capacity max_connections cache cache_fsync
    cache_max grace_ms write_timeout_ms request_log dedup_max chaos chaos_seed
    quiet =
  guard @@ fun () ->
  let listen = listen_of_flags port socket in
  let domains = effective_domains domains in
  (* Arm the chaos seam before any subsystem starts: --chaos wins over
     CONFCALL_CHAOS; a malformed spec dies here, at the boundary. *)
  (match chaos with
   | Some spec -> (
     match Faultpoint.configure ~seed:chaos_seed spec with
     | Ok () -> ()
     | Error msg -> invalid_arg msg)
   | None -> Faultpoint.arm_from_env ());
  let cfg =
    {
      (Serve.Server.default_config listen) with
      domains;
      capacity;
      max_connections;
      cache_path = cache;
      cache_fsync;
      cache_max;
      drain_grace_ms = grace_ms;
      write_timeout_ms;
      request_log;
      dedup_max;
      quiet;
    }
  in
  let clean = Serve.Server.run cfg in
  (if Faultpoint.on () && not cfg.Serve.Server.quiet then
     match Faultpoint.fired_all () with
     | [] -> ()
     | fired ->
       Printf.eprintf "confcall serve: chaos fired %s\n%!"
         (String.concat " "
            (List.map (fun (p, n) -> Printf.sprintf "%s=%d" p n) fired)));
  if not clean then exit 1

let serve_cmd =
  let capacity =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Admission-queue bound: requests beyond $(docv) queued are \
                shed with rejected:overload.")
  in
  let max_connections =
    Arg.(
      value & opt int 256
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent connection cap.")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:"Journal the solver-result cache to $(docv); a restarted \
                daemon reloads it and serves hits.")
  in
  let cache_fsync =
    Arg.(
      value & flag
      & info [ "cache-fsync" ]
          ~doc:"fsync the cache journal after every store (power-loss \
                durability).")
  in
  let cache_max =
    Arg.(
      value
      & opt int Serve.Cache.default_max_entries
      & info [ "cache-max" ] ~docv:"N"
          ~doc:"Result-cache LRU bound: beyond $(docv) resident entries the \
                least-recently-used is evicted (journal lines are kept).")
  in
  let grace_ms =
    Arg.(
      value & opt float 10_000.0
      & info [ "grace-ms" ] ~docv:"MS"
          ~doc:"Drain grace: on SIGTERM, in-flight requests get $(docv) ms \
                to finish.")
  in
  let write_timeout_ms =
    Arg.(
      value & opt float 5_000.0
      & info [ "write-timeout-ms" ] ~docv:"MS"
          ~doc:"Per-chunk socket-write deadline: a client that stalls its \
                reads longer than $(docv) ms is disconnected.")
  in
  let request_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "request-log" ] ~docv:"FILE"
          ~doc:"Append-only journal of executed request_ids (id TAB \
                status): the exactly-once audit trail for retried or \
                hedged requests.")
  in
  let dedup_max =
    Arg.(
      value & opt int 4096
      & info [ "dedup-max" ] ~docv:"N"
          ~doc:"Completed idempotency entries kept for replay (LRU).")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:"Arm runtime fault injection: comma-separated \
                point=prob[@param] entries, or *=prob for every point \
                (e.g. 'serve.lane.crash=0.05,journal.fsync=0.1'). \
                Overrides CONFCALL_CHAOS. For chaos testing only.")
  in
  let chaos_seed =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:"PRNG seed for --chaos draws (reproducible chaos).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No startup/shutdown banner.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the paging daemon (JSONL over TCP or Unix socket)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "One JSON request per line, one JSON response per request \
              (pipelining allowed; responses may arrive out of order). Ops: \
              solve, simulate, health, metrics, drain. Under load the \
              daemon first downgrades fallback chains (heuristic, then \
              always-fast rungs), then sheds with rejected:overload; \
              per-request budget_ms deadlines are armed at admission and \
              over-budget requests return the anytime best-so-far as \
              degraded. SIGTERM drains gracefully.";
         ])
    Term.(
      const serve $ port_arg $ socket_arg $ domains_arg $ capacity
      $ max_connections $ cache $ cache_fsync $ cache_max $ grace_ms
      $ write_timeout_ms $ request_log $ dedup_max $ chaos $ chaos_seed
      $ quiet)

(* ---------------- loadgen ---------------- *)

(* --endpoints wins over --port/--socket; each entry is PORT, tcp:PORT,
   unix:PATH or a bare socket path (see {!Client.endpoint_of_string}). *)
let endpoints_of_flags endpoints port socket =
  match endpoints with
  | Some (_, eps) -> eps
  | None -> [ listen_of_flags port socket ]

let loadgen port socket endpoints rate requests budget_ms solver chain m c d
    instances seed cache timeout retries hedge_after_ms json =
  guard @@ fun () ->
  let targets = endpoints_of_flags endpoints port socket in
  let opts =
    {
      Serve.Loadgen.rate;
      requests;
      budget_ms;
      solver = Option.map fst solver;
      chain = Option.map fst chain;
      m;
      c;
      d;
      instances;
      seed;
      cache;
      timeout_s = timeout;
      retries;
      hedge_after_ms;
    }
  in
  let s = try Serve.Loadgen.run_multi targets opts with
    | Unix.Unix_error (e, _, _) ->
      invalid_arg
        (Printf.sprintf "loadgen: cannot reach the daemon (%s)"
           (Unix.error_message e))
  in
  let pct a p =
    let v = Serve.Loadgen.percentile a p in
    if Float.is_nan v then J.Null else J.Num v
  in
  if json then
    print_json
      (J.Obj
         [
           ("sent", J.int s.Serve.Loadgen.sent);
           ("ok", J.int s.Serve.Loadgen.ok);
           ("degraded", J.int s.Serve.Loadgen.degraded);
           ("rejected", J.int s.Serve.Loadgen.rejected);
           ("errors", J.int s.Serve.Loadgen.errors);
           ("unanswered", J.int s.Serve.Loadgen.unanswered);
           ("retried", J.int s.Serve.Loadgen.retried);
           ("failed_over", J.int s.Serve.Loadgen.failed_over);
           ("hedge_wins", J.int s.Serve.Loadgen.hedge_wins);
           ("duration_s", J.Num s.Serve.Loadgen.duration_s);
           ("throughput", J.Num s.Serve.Loadgen.throughput);
           ( "accepted_ms",
             J.Obj
               [
                 ("p50", pct s.Serve.Loadgen.accepted_ms 50.0);
                 ("p99", pct s.Serve.Loadgen.accepted_ms 99.0);
                 ("p999", pct s.Serve.Loadgen.accepted_ms 99.9);
               ] );
           ( "rejected_ms",
             J.Obj
               [
                 ("p50", pct s.Serve.Loadgen.rejected_ms 50.0);
                 ("p99", pct s.Serve.Loadgen.rejected_ms 99.0);
               ] );
           ( "ladder",
             J.Obj
               (List.map (fun (k, v) -> (k, J.int v)) s.Serve.Loadgen.ladder)
           );
         ])
  else begin
    Printf.printf
      "sent %d: %d ok, %d degraded, %d rejected, %d errors, %d unanswered\n"
      s.Serve.Loadgen.sent s.Serve.Loadgen.ok s.Serve.Loadgen.degraded
      s.Serve.Loadgen.rejected s.Serve.Loadgen.errors
      s.Serve.Loadgen.unanswered;
    if
      s.Serve.Loadgen.retried > 0
      || s.Serve.Loadgen.failed_over > 0
      || s.Serve.Loadgen.hedge_wins > 0
    then
      Printf.printf "resilience: %d retried, %d failed over, %d hedge wins\n"
        s.Serve.Loadgen.retried s.Serve.Loadgen.failed_over
        s.Serve.Loadgen.hedge_wins;
    Printf.printf "throughput: %.1f responses/s over %.2f s\n"
      s.Serve.Loadgen.throughput s.Serve.Loadgen.duration_s;
    let show name a =
      if Array.length a > 0 then
        Printf.printf "%s latency ms: p50 %.2f  p99 %.2f  p99.9 %.2f\n" name
          (Serve.Loadgen.percentile a 50.0)
          (Serve.Loadgen.percentile a 99.0)
          (Serve.Loadgen.percentile a 99.9)
    in
    show "accepted" s.Serve.Loadgen.accepted_ms;
    show "rejected" s.Serve.Loadgen.rejected_ms;
    List.iter
      (fun (k, v) -> Printf.printf "ladder %s: %d\n" k v)
      s.Serve.Loadgen.ladder
  end;
  if s.Serve.Loadgen.unanswered > 0 then exit 3

let loadgen_cmd =
  let rate =
    Arg.(
      value & opt float 50.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Offered load: open-loop Poisson arrivals at $(docv) \
                requests/second.")
  in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let m = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Devices per instance.") in
  let c = Arg.(value & opt int 12 & info [ "c" ] ~doc:"Cells per instance.") in
  let d = Arg.(value & opt int 2 & info [ "d" ] ~doc:"Delay budget.") in
  let instances =
    Arg.(
      value & opt int 32
      & info [ "instances" ] ~docv:"N"
          ~doc:"Distinct instances in the generated pool.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let cache =
    Arg.(
      value & flag
      & info [ "use-cache" ]
          ~doc:"Let the daemon answer from its result cache (default: \
                bypass, to measure solves).")
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"S"
          ~doc:"Per-request budget in seconds, retries included: a \
                request with no terminal answer by then counts as \
                unanswered.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Per-request retry budget (capped exponential backoff with \
                decorrelated jitter, honoring server retry_after_ms \
                hints). Every request carries an idempotency request_id \
                unique to the run, so a retry executes at most once per \
                daemon.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive Poisson load at a running serve daemon")
    Term.(
      const loadgen $ port_arg $ socket_arg $ endpoints_arg $ rate $ requests
      $ budget_arg $ solver_arg (Some ("greedy", Solver.Greedy)) $ chain_arg
      $ m $ c $ d $ instances $ seed $ cache $ timeout $ retries
      $ hedge_after_arg $ json_arg)

(* ---------------- call ---------------- *)

let call path endpoints port socket retries hedge_after_ms deadline_ms
    budget_ms solver chain objective no_cache request_id json =
  guard @@ fun () ->
  let inst = read_instance path in
  Result.iter_error invalid_arg
    (Runner.validate ?objective:(Option.map snd objective) ?budget_ms
       ~m:inst.Instance.m ());
  let eps = endpoints_of_flags endpoints port socket in
  if not (Float.is_finite deadline_ms) || deadline_ms <= 0.0 then
    invalid_arg "call: --deadline-ms must be positive";
  let cl =
    Client.create
      {
        endpoints = eps;
        retry = { Client.Retry.default with max_retries = retries };
        budget_ms = Some deadline_ms;
        hedge_after_ms;
        seed = Unix.getpid ();
      }
  in
  let request_id =
    match request_id with
    | Some r -> r
    | None ->
      (* fresh per invocation: a re-run of the command is a new request,
         only in-process retries/hedges share the key *)
      Printf.sprintf "cli-%d-%.0f" (Unix.getpid ())
        (Unix.gettimeofday () *. 1e6)
  in
  (* the client appends the request_id after the frame's own fields *)
  let fields =
    Wire.Proto.solve_fields
      {
        instance = Instance.to_string inst;
        solver = Option.map fst solver;
        chain = Option.map fst chain;
        budget_ms;
        objective = Option.map fst objective;
        cache = not no_cache;
        request_id = None;
      }
  in
  let result = Client.call cl ~request_id fields in
  Client.close cl;
  match result with
  | Ok (out : Client.call_outcome) ->
    if json then
      print_json
        (J.Obj
           [
             (* the winning response, re-printed: the same bytes the
                daemon wrote *)
             ("response", out.Client.response.Wire.Proto.json);
             ( "endpoint",
               J.Str (Client.endpoint_to_string out.Client.endpoint) );
             ("attempts", J.int out.Client.attempts);
             ("retries", J.int out.Client.retries);
             ("failovers", J.int out.Client.failovers);
             ("hedges", J.int out.Client.hedges);
             ("hedge_won", J.Bool out.Client.hedge_won);
             ("elapsed_ms", J.Num out.Client.elapsed_ms);
           ])
    else begin
      print_endline out.Client.raw;
      Printf.eprintf
        "confcall call: %s from %s in %.1f ms (attempts=%d retries=%d \
         failovers=%d hedges=%d%s)\n\
         %!"
        out.Client.response.Wire.Proto.status
        (Client.endpoint_to_string out.Client.endpoint)
        out.Client.elapsed_ms out.Client.attempts out.Client.retries
        out.Client.failovers out.Client.hedges
        (if out.Client.hedge_won then ", hedge won" else "")
    end
  | Error (e : Client.call_error) ->
    Printf.eprintf
      "confcall call: %s: %s (attempts=%d retries=%d failovers=%d hedges=%d \
       elapsed=%.1f ms)\n\
       %!"
      (Client.failure_kind_to_string e.Client.kind)
      e.Client.message e.Client.err_attempts e.Client.err_retries
      e.Client.err_failovers e.Client.err_hedges e.Client.err_elapsed_ms;
    exit 1

let call_cmd =
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget: overload/draining rejects and connection \
                losses retry with capped exponential backoff and \
                decorrelated jitter, honoring server retry_after_ms \
                hints.")
  in
  let deadline_ms =
    Arg.(
      value & opt float 30_000.0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"End-to-end budget across all retries and hedges; on \
                exhaustion the best-so-far error is reported.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Bypass the daemon's result cache.")
  in
  let request_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "request-id" ] ~docv:"ID"
          ~doc:"Idempotency key (default: fresh per invocation). Reusing \
                one replays the daemon's memoized terminal response.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"One-shot resilient solve against one or more daemons"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Sends a single solve request through the resilient client \
              runtime: deadline-aware retries with capped, jittered \
              backoff; health-scored failover across --endpoints; and \
              optional tail-latency hedging. The request carries an \
              idempotency request_id, so retries and hedges never execute \
              twice on the same daemon. Exits 0 on an ok or degraded \
              answer, 1 when no terminal success was obtained, 2 on bad \
              arguments.";
         ])
    Term.(
      const call $ file_arg $ endpoints_arg $ port_arg $ socket_arg $ retries
      $ hedge_after_arg $ deadline_ms $ budget_arg $ solver_arg None
      $ chain_arg $ objective_arg $ no_cache $ request_id $ json_arg)

let () =
  let info =
    Cmd.info "confcall" ~version:"1.0.0"
      ~doc:"Wireless conference-call paging under delay constraints"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            solve_cmd;
            sweep_cmd;
            compare_cmd;
            evaluate_cmd;
            analyze_cmd;
            simulate_cmd;
            hardness_cmd;
            serve_cmd;
            loadgen_cmd;
            call_cmd;
          ]))
