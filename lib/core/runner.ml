type error =
  | Timeout
  | Inapplicable of string
  | Invalid_input of string
  | Internal of string

type stage_status = Completed | Degraded | Failed of error

type stage_report = {
  spec : Solver.spec;
  status : stage_status;
  elapsed_ms : float;
  expected_paging : float option;
  robust_ep : float option;  (* worst-case EP, in uncertainty runs *)
  raced : bool;  (* stage ran concurrently with the rest of the chain *)
}

type quality = {
  expected_paging : float;
  lower_bound : float;
  ratio_to_lower_bound : float;
  guarantee : float;
  within_guarantee : bool;
}

type robust_report = {
  uncertainty : Uncertainty.t;
  winner_robust_ep : float;
  winner_bounds : Uncertainty.bounds;
}

type run_report = {
  chain : Solver.spec list;
  objective : Objective.t;
  budget_ms : float option;
  winner : (Solver.spec * Solver.outcome) option;
  stages : stage_report list;
  total_ms : float;
  quality : quality option;
  robust : robust_report option;
  failure : error option;
}

let default_chain =
  Solver.
    [ Best_exact; Branch_and_bound; Local_search; Greedy; Page_all ]

let chain_to_string chain =
  String.concat "," (List.map Solver.spec_to_string chain)

let chain_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "default" | "best-exact-chain" -> Ok default_chain
  | "fast" -> Ok Solver.[ Greedy; Page_all ]
  | "heuristic" -> Ok Solver.[ Local_search; Greedy; Page_all ]
  | "exact" -> Ok Solver.[ Best_exact; Branch_and_bound; Exhaustive ]
  | "" -> Error "empty fallback chain"
  | _ ->
    let parts = String.split_on_char ',' s |> List.map String.trim in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: _ -> Error "empty solver name in chain"
      | p :: rest ->
        (match Solver.spec_of_string p with
         | Ok spec -> go (spec :: acc) rest
         | Error e -> Error e)
    in
    go [] parts

(* Stages cheap enough to run after the deadline, inside the grace
   window: polynomial, small constants. Everything else is skipped once
   the budget is gone. *)
let always_fast = function
  | Solver.Greedy | Solver.Page_all | Solver.Within_order _
  | Solver.Bandwidth_limited _ ->
    true
  | Solver.Exhaustive | Solver.Branch_and_bound | Solver.Best_exact
  | Solver.Local_search | Solver.Class_based | Solver.Robust _ ->
    false

let error_to_string = function
  | Timeout -> "timeout"
  | Inapplicable msg -> Printf.sprintf "inapplicable: %s" msg
  | Invalid_input msg -> Printf.sprintf "invalid input: %s" msg
  | Internal msg -> Printf.sprintf "internal error: %s" msg

let stage_status_to_string = function
  | Completed -> "ok"
  | Degraded -> "ok (degraded: budget hit, best-so-far)"
  | Failed e -> error_to_string e

(* Observability (DESIGN §9): one counter per stage outcome, a latency
   histogram per stage, and a winner counter keyed by solver spec. The
   [*_ms] histograms are timing-dependent and exempt from the
   cross-domain counter-equality contract; the outcome counters are not
   — in re-ranking mode the raced and sequential paths execute the same
   stage set with the same statuses. *)
let obs_status_counter = function
  | Completed -> "runner_stage_completed"
  | Degraded -> "runner_stage_degraded"
  | Failed Timeout -> "runner_stage_timeout"
  | Failed (Inapplicable _) -> "runner_stage_inapplicable"
  | Failed (Invalid_input _) -> "runner_stage_invalid_input"
  | Failed (Internal _) -> "runner_stage_internal"

let obs_record_stage (s : stage_report) =
  if Obs.on () then begin
    Obs.count (obs_status_counter s.status);
    Obs.observe ~buckets:Obs.latency_ms_buckets "runner_stage_ms" s.elapsed_ms
  end

let quality_of ?objective inst (outcome : Solver.outcome) =
  let lower_bound = Bounds.lower_bound ?objective inst in
  let ep = outcome.Solver.expected_paging in
  let ratio = if lower_bound > 0.0 then ep /. lower_bound else Float.nan in
  let guarantee = Greedy.approximation_factor in
  {
    expected_paging = ep;
    lower_bound;
    ratio_to_lower_bound = ratio;
    guarantee;
    within_guarantee = (ratio <= guarantee +. 1e-9);
  }

let run ?(objective = Objective.Find_all) ?budget_ms ?(grace_ms = 100.0)
    ?(clock = Cancel.now) ?(ensure_baseline = true) ?(chain = default_chain)
    ?uncertainty ?pool ?arena inst =
  Obs.span "runner.run" @@ fun run_sp ->
  Obs.count "runner_runs";
  let chain =
    if ensure_baseline && not (List.mem Solver.Page_all chain) then
      chain @ [ Solver.Page_all ]
    else chain
  in
  let start = clock () in
  let deadline = Option.map (fun b -> start +. (b /. 1000.0)) budget_ms in
  let unguarded = Option.is_some deadline in
  let finish ~stages ~winner ~failure =
    let quality =
      Option.map (fun (_, o) -> quality_of ~objective inst o) winner
    in
    let robust =
      match (uncertainty, winner) with
      | Some u, Some (_, o) ->
        (try
           let strat = o.Solver.strategy in
           Some
             {
               uncertainty = u;
               winner_robust_ep =
                 Uncertainty.robust_ep ~objective u inst strat;
               winner_bounds = Uncertainty.ep_bounds ~objective u inst strat;
             }
         with Invalid_argument _ -> None)
      | _ -> None
    in
    let total_ms = (clock () -. start) *. 1000.0 in
    if Obs.on () then begin
      (match winner with
       | Some (spec, _) ->
         Obs.count
           ("runner_winner_" ^ Obs.sanitize (Solver.spec_to_string spec))
       | None -> Obs.count "runner_no_winner");
      (match quality with
       | Some q when Float.is_finite q.ratio_to_lower_bound ->
         Obs.observe ~buckets:Obs.excess_buckets "runner_ep_excess"
           (Float.max 0.0 (q.ratio_to_lower_bound -. 1.0))
       | Some _ | None -> ());
      match budget_ms with
      | Some b ->
        Obs.observe ~buckets:Obs.latency_ms_buckets "runner_budget_slack_ms"
          (b -. total_ms)
      | None -> ()
    end;
    {
      chain;
      objective;
      budget_ms;
      winner;
      stages = List.rev stages;
      total_ms;
      quality;
      robust;
      failure;
    }
  in
  let input_error =
    match Objective.validate objective ~m:inst.Instance.m with
    | Error msg -> Some msg
    | Ok () ->
      (match uncertainty with
       | None -> None
       | Some u ->
         (match Uncertainty.validate u ~m:inst.Instance.m with
          | Error msg -> Some ("uncertainty: " ^ msg)
          | Ok () -> None))
  in
  match input_error with
  | Some msg ->
    finish ~stages:[] ~winner:None ~failure:(Some (Invalid_input msg))
  | None ->
    (* Worst-case EP of a completed stage's strategy — the re-ranking
       key in uncertainty mode. [infinity] keeps an unscorable stage as
       a last-resort candidate so the run can still produce a winner. *)
    let robust_score (outcome : Solver.outcome) =
      match uncertainty with
      | None -> None
      | Some u ->
        (try
           Some (Uncertainty.robust_ep ~objective u inst
                   outcome.Solver.strategy)
         with Invalid_argument _ -> Some infinity)
    in
    let rec go best stages = function
      | [] ->
        (match best with
         | Some (spec, outcome, _) ->
           finish ~stages ~winner:(Some (spec, outcome)) ~failure:None
         | None ->
           let failure =
             if
               List.exists
                 (fun s -> s.status = Failed Timeout)
                 stages
             then Timeout
             else Internal "fallback chain exhausted without a result"
           in
           finish ~stages ~winner:None ~failure:(Some failure))
      | spec :: rest ->
        let t0 = clock () in
        let overdue =
          match deadline with Some d -> t0 >= d | None -> false
        in
        if overdue && not (always_fast spec) then
          let stage =
            { spec; status = Failed Timeout; elapsed_ms = 0.0;
              expected_paging = None; robust_ep = None; raced = false }
          in
          (obs_record_stage stage;
           go best (stage :: stages) rest)
        else begin
          (* Fresh token per stage: a token fired during one stage must
             not instantly cancel the next. Overdue fast stages get the
             grace window; [Page_all] is O(m·c) and runs untokened. *)
          let cancel =
            match (spec, deadline) with
            | Solver.Page_all, _ | _, None -> Cancel.never
            | _, Some d ->
              let d = if overdue then clock () +. (grace_ms /. 1000.0) else d in
              Cancel.deadline ~clock d
          in
          let result =
            Obs.span ~parent:run_sp ("stage:" ^ Solver.spec_to_string spec)
            @@ fun _sp ->
            match Solver.solve ~objective ~cancel ~unguarded ?arena spec inst with
            | outcome ->
              if Cancel.cancelled cancel then Ok (Degraded, outcome)
              else Ok (Completed, outcome)
            | exception Cancel.Cancelled -> Error Timeout
            | exception Invalid_argument msg -> Error (Inapplicable msg)
            | exception exn -> Error (Internal (Printexc.to_string exn))
          in
          let elapsed_ms = (clock () -. t0) *. 1000.0 in
          match result with
          | Ok (status, outcome) ->
            let rscore = robust_score outcome in
            let stage =
              { spec; status; elapsed_ms;
                expected_paging = Some outcome.Solver.expected_paging;
                robust_ep = rscore; raced = false }
            in
            obs_record_stage stage;
            (match uncertainty with
             | None ->
               finish ~stages:(stage :: stages)
                 ~winner:(Some (spec, outcome)) ~failure:None
             | Some _ ->
               (* Re-ranking mode: keep going and remember the stage
                  with the best certified worst case (first wins ties —
                  earlier chain entries are the stronger methods). *)
               let r = Option.value rscore ~default:infinity in
               let best' =
                 match best with
                 | Some (_, _, r') when r' <= r -> best
                 | _ -> Some (spec, outcome, r)
               in
               go best' (stage :: stages) rest)
          | Error err ->
            let stage =
              { spec; status = Failed err; elapsed_ms;
                expected_paging = None; robust_ep = None; raced = false }
            in
            obs_record_stage stage;
            go best (stage :: stages) rest
        end
    in
    (* Raced execution: all stages of the chain run concurrently on the
       pool; in first-success mode the winner is the minimum-chain-index
       success — exactly the stage the sequential loop would have chosen
       — so a success at index i makes every j > i a definitive loser,
       and we flip their lose flags the moment i completes. Stages
       before i keep running: one of them may still succeed and take the
       win. In re-ranking (uncertainty) mode every candidate's score is
       needed, so nothing is cancelled early. Each task polls its flag
       through its own [Cancel] token; losers unwind within one poll
       interval. *)
    let run_raced pool =
      let chain_arr = Array.of_list chain in
      let n = Array.length chain_arr in
      let lose = Array.init n (fun _ -> Atomic.make false) in
      let on_success i =
        if Option.is_none uncertainty then
          for j = i + 1 to n - 1 do
            Atomic.set lose.(j) true
          done
      in
      let run_one i =
        let spec = chain_arr.(i) in
        let t0 = clock () in
        let overdue =
          match deadline with Some d -> t0 >= d | None -> false
        in
        if overdue && not (always_fast spec) then begin
          let stage =
            { spec; status = Failed Timeout; elapsed_ms = 0.0;
              expected_paging = None; robust_ep = None; raced = true }
          in
          obs_record_stage stage;
          (stage, None)
        end
        else begin
          let lose_probe () = Atomic.get lose.(i) in
          let cancel =
            (* Same per-stage token policy as the sequential loop, with
               the lose flag OR-ed into the probe. [Page_all] stays
               untokened: it is the O(m·c) baseline whose completion the
               budget+grace guarantee leans on. *)
            match (spec, deadline) with
            | Solver.Page_all, _ -> Cancel.never
            | _, None -> Cancel.of_probe lose_probe
            | _, Some d ->
              let d =
                if overdue then clock () +. (grace_ms /. 1000.0) else d
              in
              Cancel.of_probe (fun () -> lose_probe () || clock () >= d)
          in
          let result =
            Obs.span ~parent:run_sp ("stage:" ^ Solver.spec_to_string spec)
            @@ fun _sp ->
            (* Raced stages run on pool domains: without [?arena] each
               solves on its own domain's arena, so concurrent stages
               never share scratch. *)
            match Solver.solve ~objective ~cancel ~unguarded spec inst with
            | outcome ->
              on_success i;
              if Cancel.cancelled cancel then Ok (Degraded, outcome)
              else Ok (Completed, outcome)
            | exception Cancel.Cancelled -> Error Timeout
            | exception Invalid_argument msg -> Error (Inapplicable msg)
            | exception exn -> Error (Internal (Printexc.to_string exn))
          in
          let elapsed_ms = (clock () -. t0) *. 1000.0 in
          match result with
          | Ok (status, outcome) ->
            let rscore = robust_score outcome in
            let stage =
              { spec; status; elapsed_ms;
                expected_paging = Some outcome.Solver.expected_paging;
                robust_ep = rscore; raced = true }
            in
            obs_record_stage stage;
            (stage, Some (outcome, rscore))
          | Error err ->
            let stage =
              { spec; status = Failed err; elapsed_ms;
                expected_paging = None; robust_ep = None; raced = true }
            in
            obs_record_stage stage;
            (stage, None)
        end
      in
      (* [run_all], not [map]: a stage crashing its domain (chaos seam,
         stack overflow in a solver) must fail only that stage. The
         watchdog guard mirrors the sequential loop's budget + grace
         promise for tasks that stop cooperating: its cancel fires the
         stage's lose flag, and a stage that still will not unwind gets
         its worker lane recycled underneath it on completion. *)
      let guard i =
        match deadline with
        | None -> None
        | Some d ->
          Some
            Exec.Pool.
              { deadline_s = d; grace_s = grace_ms /. 1000.0;
                cancel = (fun () -> Atomic.set lose.(i) true) }
      in
      let results =
        Exec.Pool.run_all pool ~guard run_one (Array.init n Fun.id)
        |> Array.mapi (fun i -> function
          | Ok r -> r
          | Error e ->
            (* The stage never published: its domain died mid-flight.
               Surface it through the ordinary taxonomy. *)
            let stage =
              { spec = chain_arr.(i);
                status = Failed (Internal (Printexc.to_string e));
                elapsed_ms = 0.0; expected_paging = None;
                robust_ep = None; raced = true }
            in
            obs_record_stage stage;
            (stage, None))
      in
      let stages_rev =
        Array.fold_left (fun acc (s, _) -> s :: acc) [] results
      in
      let winner =
        match uncertainty with
        | None ->
          (* First (minimum-index) success, as the sequential chain. *)
          let rec first i =
            if i >= n then None
            else
              match results.(i) with
              | _, Some (outcome, _) -> Some (chain_arr.(i), outcome)
              | _, None -> first (i + 1)
          in
          first 0
        | Some _ ->
          (* Re-rank by worst-case EP; ties to the earlier chain entry
             (the iteration order makes [<=] keep the incumbent). *)
          let best = ref None in
          Array.iteri
            (fun i (_, r) ->
              match r with
              | None -> ()
              | Some (outcome, rscore) ->
                let r = Option.value rscore ~default:infinity in
                (match !best with
                 | Some (_, _, r') when r' <= r -> ()
                 | _ -> best := Some (chain_arr.(i), outcome, r)))
            results;
          Option.map (fun (spec, outcome, _) -> (spec, outcome)) !best
      in
      match winner with
      | Some w -> finish ~stages:stages_rev ~winner:(Some w) ~failure:None
      | None ->
        let failure =
          if
            List.exists (fun s -> s.status = Failed Timeout) stages_rev
          then Timeout
          else Internal "fallback chain exhausted without a result"
        in
        finish ~stages:stages_rev ~winner:None ~failure:(Some failure)
    in
    (match pool with
     | Some p when Exec.Pool.size p > 1 -> run_raced p
     | Some _ | None -> go None [] chain)

let solve ?objective ?budget_ms ?grace_ms ?clock ?chain ?uncertainty ?pool
    ?arena inst =
  let report =
    run ?objective ?budget_ms ?grace_ms ?clock ?chain ?uncertainty ?pool ?arena
      inst
  in
  match (report.winner, report.failure) with
  | Some (_, outcome), _ -> Ok outcome
  | None, Some err -> Error err
  | None, None -> Error (Internal "runner produced neither winner nor failure")

let pp_report fmt r =
  let open Format in
  fprintf fmt "chain: %s@," (chain_to_string r.chain);
  fprintf fmt "objective: %s@," (Objective.to_string r.objective);
  (match r.budget_ms with
   | Some b -> fprintf fmt "budget: %.1f ms@," b
   | None -> fprintf fmt "budget: none@,");
  List.iter
    (fun s ->
       fprintf fmt "  %-14s %8.2f ms  %s%s%s%s@,"
         (Solver.spec_to_string s.spec)
         s.elapsed_ms
         (stage_status_to_string s.status)
         (match s.expected_paging with
          | Some ep -> sprintf "  EP=%.6f" ep
          | None -> "")
         (match s.robust_ep with
          | Some rep -> sprintf "  worst-EP=%.6f" rep
          | None -> "")
         (if s.raced then "  [raced]" else ""))
    r.stages;
  (match r.winner with
   | Some (spec, outcome) ->
     fprintf fmt "winner: %s (EP=%.6f%s)@,"
       (Solver.spec_to_string spec)
       outcome.Solver.expected_paging
       (if outcome.Solver.exact then ", exact" else "")
   | None -> fprintf fmt "winner: none@,");
  (match r.quality with
   | Some q ->
     fprintf fmt
       "quality: EP=%.6f  LB=%.6f  ratio=%.4f  e/(e-1)=%.4f  %s@,"
       q.expected_paging q.lower_bound q.ratio_to_lower_bound q.guarantee
       (if q.within_guarantee then "within guarantee"
        else "above guarantee line")
   | None -> ());
  (match r.robust with
   | Some rr ->
     fprintf fmt "robust (%s): worst-case EP=%.6f  certified EP in [%.6f, %.6f]@,"
       (Uncertainty.to_string rr.uncertainty)
       rr.winner_robust_ep rr.winner_bounds.Uncertainty.lo
       rr.winner_bounds.Uncertainty.hi
   | None -> ());
  (match r.failure with
   | Some e -> fprintf fmt "failure: %s@," (error_to_string e)
   | None -> ());
  fprintf fmt "total: %.2f ms" r.total_ms
