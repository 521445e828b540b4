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

let resolve_chain ~chain ~spec =
  match (chain, spec) with
  | Some chain, _ -> chain
  | None, Some spec -> [ spec ]
  | None, None -> default_chain

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

let validate ?(objective = Objective.Find_all) ?budget_ms ?uncertainty ~m () =
  match (Objective.validate objective ~m, budget_ms, uncertainty) with
  | Error msg, _, _ -> Error ("objective: " ^ msg)
  | Ok (), Some b, _ when not (Float.is_finite b && b > 0.0) ->
    Error (Printf.sprintf "budget_ms must be positive and finite, got %g" b)
  | Ok (), _, Some u ->
    Result.map_error (( ^ ) "uncertainty: ") (Uncertainty.validate u ~m)
  | Ok (), _, None -> Ok ()

(* How long a fast stage that starts after the deadline may run. *)
let grace_s = 0.1

let run ?(objective = Objective.Find_all) ?budget_ms ?(clock = Obs.now)
    ?(chain = default_chain) ?uncertainty ?pool ?arena inst =
  Obs.span "runner.run" @@ fun run_sp ->
  Obs.count "runner_runs";
  let chain =
    if List.mem Solver.Page_all chain then chain
    else chain @ [ Solver.Page_all ]
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
      stages;
      total_ms;
      quality;
      robust;
      failure;
    }
  in
  match validate ~objective ?budget_ms ?uncertainty ~m:inst.Instance.m () with
  | Error msg ->
    finish ~stages:[] ~winner:None ~failure:(Some (Invalid_input msg))
  | Ok () ->
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
    let record ~raced spec status elapsed_ms result =
      let stage =
        { spec; status; elapsed_ms;
          expected_paging =
            Option.map (fun (o, _) -> o.Solver.expected_paging) result;
          robust_ep = Option.bind result snd; raced }
      in
      obs_record_stage stage;
      (stage, result)
    in
    (* The one stage executor, shared by both schedules. [lose] is the
       raced stage's loser flag; without it the stage runs in the
       calling domain on the caller's arena. Overdue expensive stages are
       skipped. Each stage gets a fresh token — one fired during one
       stage must not instantly cancel the next — that ORs the loser
       flag with the deadline, or with the grace window once overdue.
       [Page_all] is the O(m·c) baseline the budget+grace guarantee
       leans on and always runs untokened. *)
    let run_stage ?lose spec =
      let raced = Option.is_some lose in
      let t0 = clock () in
      let overdue = match deadline with Some d -> t0 >= d | None -> false in
      if overdue && not (always_fast spec) then
        record ~raced spec (Failed Timeout) 0.0 None
      else begin
        let lost () = match lose with Some l -> Atomic.get l | None -> false in
        let cancel =
          match (spec, deadline, lose) with
          | Solver.Page_all, _, _ | _, None, None -> Cancel.never
          | _, None, Some _ -> Cancel.of_probe lost
          | _, Some d, _ ->
            let d = if overdue then clock () +. grace_s else d in
            Cancel.of_probe (fun () -> lost () || clock () >= d)
        in
        let arena = if raced then None else arena in
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
          record ~raced spec status elapsed_ms
            (Some (outcome, robust_score outcome))
        | Error err -> record ~raced spec (Failed err) elapsed_ms None
      end
    in
    (* Winner and failure from the chain-ordered stage results: the
       least worst-case EP, ties to the earlier (stronger) chain entry.
       Without [?uncertainty] every score is [infinity], so that is the
       first success. *)
    let conclude results =
      let stages = List.map fst results in
      let best =
        List.fold_left
          (fun best ((s : stage_report), result) ->
            match result with
            | None -> best
            | Some (outcome, rscore) ->
              let r = Option.value rscore ~default:infinity in
              (match best with
               | Some (_, _, r') when r' <= r -> best
               | _ -> Some (s.spec, outcome, r)))
          None results
      in
      match best with
      | Some (spec, outcome, _) ->
        finish ~stages ~winner:(Some (spec, outcome)) ~failure:None
      | None ->
        let failure =
          if List.exists (fun s -> s.status = Failed Timeout) stages then
            Timeout
          else Internal "fallback chain exhausted without a result"
        in
        finish ~stages ~winner:None ~failure:(Some failure)
    in
    (* In first-success mode a success settles the run; re-ranking
       needs every stage's score. *)
    let decisive (_, result) =
      Option.is_some result && Option.is_none uncertainty
    in
    let rec sequential acc = function
      | [] -> List.rev acc
      | spec :: rest ->
        let r = run_stage spec in
        if decisive r then List.rev (r :: acc) else sequential (r :: acc) rest
    in
    (* Raced schedule: every stage starts concurrently on the pool. A
       decisive success at index i makes every j > i a definitive loser,
       so their lose flags flip the moment i completes; stages before i
       keep running, as one of them may still take the win. The budget
       + grace promise rests on each stage's own token, exactly as in
       the sequential schedule: a stage dequeued after the deadline gets
       the same skip or grace window. *)
    let raced pool =
      let chain_arr = Array.of_list chain in
      let n = Array.length chain_arr in
      let lose = Array.init n (fun _ -> Atomic.make false) in
      let run_one i =
        let r = run_stage ~lose:lose.(i) chain_arr.(i) in
        if decisive r then
          for j = i + 1 to n - 1 do
            Atomic.set lose.(j) true
          done;
        r
      in
      (* [run_all], not [map]: a stage crashing its domain (chaos seam,
         stack overflow in a solver) must fail only that stage. *)
      Exec.Pool.run_all pool run_one (Array.init n Fun.id)
      |> Array.mapi (fun i -> function
        | Ok r -> r
        | Error e ->
          (* The stage never published: its domain died mid-flight.
             Surface it through the ordinary taxonomy. *)
          record ~raced:true chain_arr.(i)
            (Failed (Internal (Printexc.to_string e))) 0.0 None)
      |> Array.to_list
    in
    conclude
      (match pool with
       | Some p when Exec.Pool.size p > 1 -> raced p
       | Some _ | None -> sequential [] chain)

let solve ?objective ?budget_ms ?chain inst =
  let report = run ?objective ?budget_ms ?chain inst in
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
