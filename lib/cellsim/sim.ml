module Instance = Confcall.Instance
module Strategy = Confcall.Strategy
module Greedy = Confcall.Greedy
module Order_dp = Confcall.Order_dp
module Miss = Confcall.Miss
module Runner = Confcall.Runner
module Solver = Confcall.Solver
module Uncertainty = Confcall.Uncertainty

type scheme =
  | Blanket
  | Selective of int
  | Selective_diffuse of int
  | Selective_aged of int
  | Selective_robust of int

type fault_metrics = {
  retries : int;
  retry_cells : int;
  retry_rounds : int;
  escalations : int;
  escalate_cells : int;
  residual_misses : int;
  pages_lost : int;
  pages_blocked : int;
}

let no_faults_observed =
  {
    retries = 0;
    retry_cells = 0;
    retry_rounds = 0;
    escalations = 0;
    escalate_cells = 0;
    residual_misses = 0;
    pages_lost = 0;
    pages_blocked = 0;
  }

type scheme_metrics = {
  scheme : scheme;
  calls : int;
  devices_sought : int;
  cells_paged : int;
  expected_paging : float;
  rounds_used : int;
  per_call : Prob.Stats.summary;
  robustness : fault_metrics;
}

type drift_metrics = {
  checks : int;
  evaluated : int;
  resolves : int;
  last_resolve : float option;
  max_mean_tv : float;
}

type result = {
  duration : float;
  moves : int;
  updates : int;
  total_calls : int;
  skipped_calls : int;
  reports_lost : int;
  reports_delayed : int;
  outages : int;
  polls : int;
  drift : drift_metrics option;
  per_scheme : scheme_metrics list;
}

type estimator =
  | Live
  | Snapshot of {
      warmup : float;
      drift : Drift.config option;
      budget_ms : float option;
    }

type aging_config = {
  residence : Mobility.residence;
  age_cap : int;
  dwell_cap : int;
  drive_motion : bool;
  reprofile_age : int option;
  confidence : float;
}

let default_aging =
  {
    residence = Mobility.Exponential { mean = 6.0 };
    age_cap = 30;
    dwell_cap = 32;
    drive_motion = false;
    reprofile_age = None;
    confidence = 0.9;
  }

type config = {
  hex : Hex.t;
  mobility : Mobility.t;
  areas : Location_area.t;
  users : int;
  traffic : Traffic.t;
  schemes : scheme list;
  reporting : Reporting.policy;
  profile_decay : float;
  profile_smoothing : float;
  mobility_schedule : (float * Mobility.t) list;
  call_duration : float;
  track_ongoing : bool;
  faults : Faults.t option;
  estimator : estimator;
  aging : aging_config option;
  duration : float;
  seed : int;
}

let default_config () =
  let hex = Hex.create ~rows:8 ~cols:8 in
  {
    hex;
    mobility = Mobility.random_walk hex ~stay:0.4;
    areas = Location_area.grid hex ~block_rows:3 ~block_cols:3;
    users = 64;
    traffic = Traffic.create ~rate:0.5 ~group_size:(Traffic.Fixed 3) ~users:64;
    schemes = [ Blanket; Selective 2; Selective 3 ];
    reporting = Reporting.Area;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule = [];
    call_duration = 0.0;
    track_ongoing = true;
    faults = None;
    estimator = Live;
    aging = None;
    duration = 400.0;
    seed = 2002;
  }

let scheme_to_string = function
  | Blanket -> "blanket"
  | Selective d -> Printf.sprintf "selective-d%d" d
  | Selective_diffuse d -> Printf.sprintf "diffuse-d%d" d
  | Selective_aged d -> Printf.sprintf "aged-d%d" d
  | Selective_robust d -> Printf.sprintf "agedrobust-d%d" d

let validate_config config =
  if config.users <= 0 then invalid_arg "Sim.run: no users"
  else if config.schemes = [] then invalid_arg "Sim.run: no schemes"
  else if Location_area.(config.areas.cells) <> Hex.cells config.hex then
    invalid_arg "Sim.run: area partition does not match the hex field"
  else if
    not
      (Float.is_finite config.profile_decay
      && config.profile_decay > 0.0
      && config.profile_decay <= 1.0)
  then invalid_arg "Sim.run: profile_decay must be in (0, 1]"
  else if
    not (Float.is_finite config.profile_smoothing && config.profile_smoothing > 0.0)
  then invalid_arg "Sim.run: profile_smoothing must be positive"
  else if not (Float.is_finite config.duration && config.duration >= 0.0) then
    invalid_arg "Sim.run: duration must be finite and non-negative"
  else if
    not (Float.is_finite config.call_duration && config.call_duration >= 0.0)
  then invalid_arg "Sim.run: call_duration must be finite and non-negative"
  else if Traffic.users config.traffic > config.users then
    invalid_arg
      (Printf.sprintf "Sim.run: traffic draws from %d users but users is %d"
         (Traffic.users config.traffic) config.users)
  else begin
    let rec check_sorted = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if a > b then
          invalid_arg "Sim.run: mobility_schedule must be sorted by start time"
        else check_sorted rest
      | _ -> ()
    in
    check_sorted config.mobility_schedule;
    List.iter
      (fun (start, _) ->
        if not (Float.is_finite start) then
          invalid_arg "Sim.run: mobility_schedule start times must be finite")
      config.mobility_schedule;
    (match Reporting.validate config.reporting with
     | Ok () -> ()
     | Error reason -> invalid_arg ("Sim.run: " ^ reason));
    (match config.estimator with
     | Live -> ()
     | Snapshot { warmup; drift; budget_ms } ->
       if not (Float.is_finite warmup && warmup >= 0.0) then
         invalid_arg "Sim.run: estimator warmup must be finite and >= 0";
       (match drift with
        | None -> ()
        | Some dc ->
          (match Drift.validate dc with
           | Ok () -> ()
           | Error reason -> invalid_arg ("Sim.run: drift: " ^ reason)));
       (* every paged call seeks at least one device *)
       Result.iter_error
         (fun reason -> invalid_arg ("Sim.run: estimator " ^ reason))
         (Runner.validate ?budget_ms ~m:1 ()));
    (match config.aging with
     | None ->
       List.iter
         (function
           | Selective_aged _ | Selective_robust _ ->
             invalid_arg
               "Sim.run: aged paging schemes require an aging config"
           | _ -> ())
         config.schemes
     | Some a ->
       (match Mobility.validate_residence a.residence with
        | Ok () -> ()
        | Error reason -> invalid_arg ("Sim.run: aging: " ^ reason));
       if a.age_cap < 0 then
         invalid_arg "Sim.run: aging age_cap must be >= 0";
       if a.dwell_cap < 1 then
         invalid_arg "Sim.run: aging dwell_cap must be >= 1";
       if
         Float.is_nan a.confidence
         || a.confidence <= 0.0 || a.confidence >= 1.0
       then invalid_arg "Sim.run: aging confidence must be in (0, 1)";
       (match a.reprofile_age with
        | Some k when k < 0 ->
          invalid_arg "Sim.run: aging reprofile_age must be >= 0"
        | _ -> ());
       if a.drive_motion && config.mobility_schedule <> [] then
         invalid_arg
           "Sim.run: aging drive_motion is incompatible with a \
            mobility_schedule");
    match config.faults with
    | None -> ()
    | Some f ->
      (match Faults.validate f with
       | Ok () -> ()
       | Error reason -> invalid_arg ("Sim.run: faults: " ^ reason))
  end

type event_kind = Tick | Call | Report_delivery of { user : int; cell : int }

type scheme_acc = {
  s_scheme : scheme;
  mutable s_calls : int;
  mutable s_devices : int;
  mutable s_cells : int;
  mutable s_expected : float;
  mutable s_rounds : int;
  s_stats : Prob.Stats.Acc.t;
  mutable s_retries : int;
  mutable s_retry_cells : int;
  mutable s_retry_rounds : int;
  mutable s_escalations : int;
  mutable s_escalate_cells : int;
  mutable s_residual : int;
  mutable s_pages_lost : int;
  mutable s_pages_blocked : int;
}

(* The paging executor, the only one: page [strategy]'s rounds (local
   indices into [universe]) against the participants' true [positions]
   until everyone has answered, then apply the retry policy, sampling
   page loss, outage blocking and imperfect detection from [frng].
   Under [Faults.none] it draws nothing and stops at the round holding
   the last participant, so [cells_paged] is the strategy's cost on
   that outcome. A participant outside [universe] (only possible after
   a lost or delayed report) is a residual miss unless a blanket
   escalation reaches it. *)
let page_call acc (fmodel : Faults.t) ~outage ~paged_mask ~all_cells ~universe
    ~positions frng strategy =
  let groups = Strategy.groups strategy in
  let n_base = Array.length groups in
  let m_group = Array.length positions in
  let found = Array.make m_group false in
  let n_found = ref 0 in
  let cells_paged = ref 0 in
  let rounds = ref 0 in
  let page_cells round_cells =
    incr rounds;
    let paged_before = !cells_paged in
    let effective = ref [] in
    Array.iter
      (fun cell ->
        if fmodel.outage_rate > 0.0 && Faults.Outage.down outage cell then
          (* The MSC knows the base station is down: the page is never
             transmitted (no cost), but the coverage hole persists. *)
          acc.s_pages_blocked <- acc.s_pages_blocked + 1
        else begin
          incr cells_paged;
          if fmodel.page_loss > 0.0 && Prob.Rng.unit_float frng < fmodel.page_loss
          then acc.s_pages_lost <- acc.s_pages_lost + 1
          else begin
            paged_mask.(cell) <- true;
            effective := cell :: !effective
          end
        end)
      round_cells;
    (if fmodel.detect_q >= 1.0 then
       Array.iteri
         (fun i pos ->
           if (not found.(i)) && paged_mask.(pos) then begin
             found.(i) <- true;
             incr n_found
           end)
         positions
     else
       n_found :=
         !n_found
         + Miss.page_round frng ~q:fmodel.detect_q
             ~in_group:(fun cell -> paged_mask.(cell))
             ~positions ~found);
    List.iter (fun cell -> paged_mask.(cell) <- false) !effective;
    if Obs.on () then
      Obs.observe ~buckets:Obs.small_count_buckets "sim_paged_cells_per_round"
        (float_of_int (!cells_paged - paged_before))
  in
  let page_local g = page_cells (Array.map (fun k -> universe.(k)) g) in
  let r = ref 0 in
  while !n_found < m_group && !r < n_base do
    page_local groups.(!r);
    incr r
  done;
  let base_cells = !cells_paged and base_rounds = !rounds in
  let repeat_cycles cycles ~backoff =
    if cycles > 0 && !n_found < m_group then begin
      let sched = Miss.repeat_strategy strategy ~cycles in
      let i = ref 0 in
      while !n_found < m_group && !i < Array.length sched do
        if !i mod n_base = 0 then begin
          acc.s_retries <- acc.s_retries + 1;
          rounds := !rounds + backoff
        end;
        page_local sched.(!i);
        incr i
      done
    end;
    acc.s_retry_cells <- acc.s_retry_cells + (!cells_paged - base_cells);
    acc.s_retry_rounds <- acc.s_retry_rounds + (!rounds - base_rounds)
  in
  (match fmodel.retry with
   | Faults.No_retry -> ()
   | Faults.Repeat { cycles; backoff } -> repeat_cycles cycles ~backoff
   | Faults.Escalate { after; to_blanket } ->
     repeat_cycles after ~backoff:0;
     if !n_found < m_group then begin
       acc.s_escalations <- acc.s_escalations + 1;
       let before = !cells_paged in
       page_cells (if to_blanket then all_cells else universe);
       acc.s_escalate_cells <- acc.s_escalate_cells + (!cells_paged - before)
     end);
  if Obs.on () then
    Obs.observe ~buckets:Obs.small_count_buckets "sim_rounds_to_find"
      (float_of_int !rounds);
  acc.s_residual <- acc.s_residual + (m_group - !n_found);
  acc.s_calls <- acc.s_calls + 1;
  acc.s_devices <- acc.s_devices + m_group;
  acc.s_cells <- acc.s_cells + !cells_paged;
  acc.s_rounds <- acc.s_rounds + !rounds;
  Prob.Stats.Acc.add acc.s_stats (float_of_int !cells_paged)

(* End-of-run counters (DESIGN §9): derived from the result record, so
   for a fixed seed they are independent of how the run was scheduled —
   that is what makes the domains-1-vs-4 counter-equality contract hold
   for replicated simulations. *)
let obs_record_result (r : result) =
  if Obs.on () then begin
    Obs.count "sim_runs";
    Obs.count_n "sim_calls" r.total_calls;
    Obs.count_n "sim_skipped_calls" r.skipped_calls;
    Obs.count_n "sim_moves" r.moves;
    Obs.count_n "sim_reports" r.updates;
    Obs.count_n "sim_reports_lost" r.reports_lost;
    Obs.count_n "sim_reports_delayed" r.reports_delayed;
    Obs.count_n "sim_outages" r.outages;
    Obs.count_n "sim_polls" r.polls;
    Option.iter (fun d -> Obs.count_n "sim_resolves" d.resolves) r.drift;
    List.iter
      (fun s ->
        Obs.count_n "sim_retries" s.robustness.retries;
        Obs.count_n "sim_escalations" s.robustness.escalations;
        Obs.count_n "sim_residual_misses" s.robustness.residual_misses;
        Obs.count_n "sim_pages_lost" s.robustness.pages_lost;
        Obs.count_n "sim_pages_blocked" s.robustness.pages_blocked)
      r.per_scheme
  end

(* Diffusion of point masses under the mobility model, memoized: the
   belief about a user last seen in [cell], [steps] ticks ago. Steps are
   capped — the diffusion approaches the stationary distribution anyway
   and the cap bounds memory. *)
let diffusion_cache mobility cells =
  let memo = Hashtbl.create 256 in
  fun ~cell ~steps ->
    let steps = Stdlib.min steps 30 in
    match Hashtbl.find_opt memo (cell, steps) with
    | Some dist -> dist
    | None ->
      let point = Array.make cells 0.0 in
      point.(cell) <- 1.0;
      let dist = Mobility.diffuse mobility point ~steps in
      Hashtbl.add memo (cell, steps) dist;
      dist

let run config =
  validate_config config;
  Obs.span "sim.run" @@ fun _sp ->
  begin
    let cells = Hex.cells config.hex in
    let rng = Prob.Rng.create ~seed:config.seed in
    let rng_move = Prob.Rng.split rng in
    let rng_traffic = Prob.Rng.split rng in
    (* A dedicated fault stream: every run splits it (and every call
       splits its per-call stream from it), so the mobility and traffic
       streams are identical across clean and faulty runs of the same
       seed, and [Faults.none] never draws from it. *)
    let rng_faults = Prob.Rng.split rng in
    let fmodel = Option.value config.faults ~default:Faults.none in
    (* Only a lost or delayed report can leave the network's view stale,
       i.e. a participant outside its uncertainty set. *)
    let report_faults =
      fmodel.Faults.report_loss > 0.0 || fmodel.Faults.report_delay > 0.0
    in
    let outage = Faults.Outage.create ~cells in
    let reports_lost = ref 0 and reports_delayed = ref 0 in
    (* Ground truth positions and the system's view. *)
    let position =
      Array.init config.users (fun _ -> Prob.Rng.int rng_move cells)
    in
    let report_state =
      Array.map
        (fun cell -> Reporting.init config.reporting ~cell ~now:0.0)
        position
    in
    let profiles =
      Array.init config.users (fun _ ->
          Profile.create ~cells ~decay:config.profile_decay
            ~smoothing:config.profile_smoothing)
    in
    (* Initial registration: the system learns the starting cells. *)
    Array.iteri (fun u cell -> Profile.observe profiles.(u) cell) position;
    (* Estimated-matrix path: once taken, the paging planner reads the
       frozen [snapshot] while the live profiles keep learning; the
       drift monitor decides when the snapshot is refreshed. *)
    let snapshot = ref [||] in
    let snapshot_active () = Array.length !snapshot > 0 in
    let take_snapshot () = snapshot := Array.map Profile.copy profiles in
    let est_warmup, dmon, plan_budget_ms =
      match config.estimator with
      | Live -> (infinity, None, None)
      | Snapshot { warmup; drift; budget_ms } ->
        ( warmup,
          Option.map
            (fun dc -> Drift.create dc ~users:config.users ~cells)
            drift,
          budget_ms )
    in
    (* Fresh sightings required before a drift trigger may discard a
       user's history in favor of the window, and how far (in TV
       distance) the window must sit from the live estimate before the
       history is actually discarded. *)
    let min_reestimate_obs = 1 in
    let reestimate_tv = 0.5 in
    let resolves = ref 0 and last_resolve = ref None in
    let maybe_freeze now =
      if (not (snapshot_active ())) && now >= est_warmup then begin
        take_snapshot ();
        Option.iter (fun d -> Drift.rearm d ~now) dmon
      end
    in
    let paging_profile u =
      if snapshot_active () then (!snapshot).(u) else profiles.(u)
    in
    (* Every exact sighting feeds the live profile, and — once the
       snapshot is frozen — the drift monitor's evidence window. *)
    let learn ~now u cell =
      Profile.observe profiles.(u) cell;
      if snapshot_active () then
        Option.iter (fun d -> Drift.observe d ~user:u ~cell ~now) dmon
    in
    let busy_until = Array.make config.users neg_infinity in
    let diffuse = diffusion_cache config.mobility cells in
    (* Residence-time layer: the aging kernel evolves beliefs by profile
       age, and optionally drives the ground-truth motion itself (the
       semi-Markov walk), giving dwell times the configured law instead
       of the geometric one the plain matrix implies. *)
    let aging_cfg = config.aging in
    let kernel =
      Option.map
        (fun a ->
          Mobility.aging_uniform ~dwell_cap:a.dwell_cap config.mobility
            a.residence)
        aging_cfg
    in
    let dwell = Array.make config.users 0 in
    let polls = ref 0 in
    (* Age of the system's knowledge of a user: full ticks since the
       last exact sighting, capped so belief evolution stays bounded. *)
    let profile_age u =
      match aging_cfg with
      | None -> 0
      | Some a ->
        Stdlib.min a.age_cap (Reporting.ticks_since_report report_state.(u))
    in
    let all_cells = Array.init cells (fun i -> i) in
    let paged_mask = Array.make cells false in
    let moves = ref 0
    and updates = ref 0
    and total_calls = ref 0
    and skipped_calls = ref 0 in
    let accs =
      List.map
        (fun scheme ->
          {
            s_scheme = scheme;
            s_calls = 0;
            s_devices = 0;
            s_cells = 0;
            s_expected = 0.0;
            s_rounds = 0;
            s_stats = Prob.Stats.Acc.create ();
            s_retries = 0;
            s_retry_cells = 0;
            s_retry_rounds = 0;
            s_escalations = 0;
            s_escalate_cells = 0;
            s_residual = 0;
            s_pages_lost = 0;
            s_pages_blocked = 0;
          })
        config.schemes
    in
    let engine = Event.create () in
    Event.schedule engine ~at:1.0 Tick;
    Event.schedule engine
      ~at:(Traffic.next_arrival config.traffic rng_traffic)
      Call;

    let observe_exactly u ~now =
      learn ~now u position.(u);
      Reporting.observe_page report_state.(u) ~cell:position.(u) ~now
    in

    (* Actual motion model in force at a given time; the schedule is
       validated sorted, so the last entry not after [now] wins. *)
    let mobility_at now =
      List.fold_left
        (fun current (start, model) ->
          if now >= start then model else current)
        config.mobility config.mobility_schedule
    in
    let handle_tick now =
      maybe_freeze now;
      if fmodel.Faults.outage_rate > 0.0 then
        Faults.Outage.step outage fmodel rng_faults;
      let mobility = mobility_at now in
      let drive_semi =
        match aging_cfg, kernel with
        | Some a, Some _ -> a.drive_motion
        | _ -> false
      in
      for u = 0 to config.users - 1 do
        let from_cell = position.(u) in
        let to_cell =
          if drive_semi then begin
            let k = Option.get kernel in
            let cell, dw =
              Mobility.semi_step k rng_move ~cell:from_cell ~dwell:dwell.(u)
            in
            dwell.(u) <- dw;
            cell
          end
          else Mobility.step mobility rng_move ~cell:from_cell
        in
        if to_cell <> from_cell then incr moves;
        position.(u) <- to_cell;
        if busy_until.(u) > now && config.track_ongoing then
          (* On a call: the network tracks the terminal continuously. *)
          observe_exactly u ~now
        else begin
          let snap =
            if report_faults then Some (Reporting.snapshot report_state.(u))
            else None
          in
          let reported =
            Reporting.on_move config.reporting ~areas:config.areas
              ~hex:config.hex report_state.(u) ~from_cell ~to_cell ~now
          in
          if reported then begin
            let moved = to_cell <> from_cell in
            match snap with
            | Some snapshot
              when fmodel.Faults.report_loss > 0.0
                   && Prob.Rng.unit_float rng_faults < fmodel.Faults.report_loss
              ->
              (* Lost in transit: the network's view stays stale and the
                 terminal keeps accumulating toward its next report
                 attempt. *)
              Reporting.rollback report_state.(u) ~snapshot ~moved;
              incr reports_lost
            | Some snapshot when fmodel.Faults.report_delay > 0.0 ->
              (* Delivered late: the anchor stays stale meanwhile, and
                 only the profile estimator learns the (old) cell at
                 delivery time. *)
              Reporting.rollback report_state.(u) ~snapshot ~moved;
              incr reports_delayed;
              let delay =
                Prob.Rng.exponential rng_faults
                  ~rate:(1.0 /. fmodel.Faults.report_delay)
              in
              Event.schedule_after engine ~delay
                (Report_delivery { user = u; cell = to_cell })
            | _ ->
              incr updates;
              (* The report reveals the exact new cell. *)
              learn ~now u to_cell
          end
        end
      done;
      Event.schedule_after engine ~delay:1.0 Tick
    in

    let handle_call now =
      maybe_freeze now;
      (* Drift check rides on call arrivals: the snapshot matters
         exactly when a search is about to use it. A trigger refreshes
         the snapshot (re-estimation) before this call is planned. *)
      (match dmon with
       | Some d when snapshot_active () ->
         (match
            Drift.check d ~now ~reference:(fun u ->
                Profile.distribution (!snapshot).(u))
          with
          | Drift.Drifted _ ->
            (* Re-estimation: a user whose evidence window contradicts
               their live estimate has known-stale counts — rebuild
               their profile from the window, hedged over their
               registered uncertainty set (the system still knows which
               location area they are in). Users whose live estimate
               already explains their window keep it: it concentrates
               as sightings accumulate, so rows sharpen again after the
               initial hedged rebuild. Then freeze the refreshed
               estimates. *)
            Array.iteri
              (fun u profile ->
                 let recent = Drift.window d ~user:u ~now in
                 let n = List.length recent in
                 if n >= min_reestimate_obs then begin
                   let emp = Array.make cells 0.0 in
                   let share = 1.0 /. float_of_int n in
                   List.iter
                     (fun c -> emp.(c) <- emp.(c) +. share)
                     recent;
                   if Drift.tv emp (Profile.distribution profile)
                      > reestimate_tv
                   then
                     let prior =
                       Reporting.uncertainty config.reporting
                         ~areas:config.areas ~hex:config.hex
                         report_state.(u) ~now
                     in
                     Profile.reseed profile ~prior recent
                 end)
              profiles;
            take_snapshot ();
            incr resolves;
            last_resolve := Some now;
            Drift.rearm d ~now
          | Drift.Stable _ | Drift.Insufficient _ | Drift.Cooling _ -> ())
       | _ -> ());
      let group = Traffic.draw_group config.traffic rng_traffic in
      if Array.exists (fun u -> busy_until.(u) > now) group then
        incr skipped_calls
      else begin
        incr total_calls;
        (* Age-triggered re-profiling: participants whose last exact
           sighting is older than the threshold are polled (one paging
           query to their reported area — counted in [polls]) before
           the search is planned, collapsing their uncertainty set and
           refreshing their profile. The semi-Markov analogue of the
           drift monitor's re-estimation, keyed on plain age. *)
        (match aging_cfg with
         | Some { reprofile_age = Some k; _ } ->
           Array.iter
             (fun u ->
               if Reporting.ticks_since_report report_state.(u) > k then begin
                 observe_exactly u ~now;
                 incr polls
               end)
             group
         | _ -> ());
        (* Per-participant uncertainty sets and their union. *)
        let uncertain =
          Array.map
            (fun u ->
              Reporting.uncertainty config.reporting ~areas:config.areas
                ~hex:config.hex report_state.(u) ~now)
            group
        in
        let universe_tbl = Hashtbl.create 64 in
        let universe_rev = ref [] in
        let universe_size = ref 0 in
        Array.iter
          (Array.iter (fun cell ->
               if not (Hashtbl.mem universe_tbl cell) then begin
                 Hashtbl.add universe_tbl cell !universe_size;
                 universe_rev := cell :: !universe_rev;
                 incr universe_size
               end))
          uncertain;
        let universe = Array.of_list (List.rev !universe_rev) in
        let c_local = Array.length universe in
        (* Each estimator's rows over the universe, built at most once
           per call and shared by every scheme that pages from them
           (Instance.create copies its rows). [estimate idx u] is the
           distribution over [uncertain.(idx)]. *)
        let rows_of estimate =
          lazy
            (Array.mapi
               (fun idx u ->
                 let row = Array.make c_local 0.0 in
                 let dist = estimate idx u in
                 Array.iteri
                   (fun k cell -> row.(Hashtbl.find universe_tbl cell) <- dist.(k))
                   uncertain.(idx);
                 row)
               group)
        in
        let counts_rows =
          rows_of (fun idx u ->
              Profile.distribution_over (paging_profile u) uncertain.(idx))
        in
        let diffuse_rows =
          rows_of (fun idx u ->
              let st = report_state.(u) in
              let belief =
                diffuse
                  ~cell:(Reporting.last_reported_cell st)
                  ~steps:(Reporting.ticks_since_report st)
              in
              let dist = Array.map (fun cell -> belief.(cell)) uncertain.(idx) in
              let mass = Array.fold_left ( +. ) 0.0 dist in
              if mass <= 0.0 then
                (* Degenerate: fall back to uniform over the uncertainty set. *)
                Array.make (Array.length dist)
                  (1.0 /. float_of_int (Array.length dist))
              else Array.map (fun p -> p /. mass) dist)
        in
        (* Age-dependent rows: the profile estimate evolved through the
           residence-time kernel for as long as the system has been
           blind to this user. Age 0 falls back to the frozen-snapshot
           path bit for bit (Profile.aged_over delegates). *)
        let aged_rows =
          rows_of (fun idx u ->
              Profile.aged_over (paging_profile u) ~aging:(Option.get kernel)
                ~age:(profile_age u) uncertain.(idx))
        in
        (* Staleness-inflated uncertainty ball for the robust re-rank:
           the sampling radius (DKW on the profile's observation count)
           grown by the churn probability — the chance the user left
           their observed cell altogether, from the residence survival
           at the profile's age. Radii never shrink with age. *)
        let staleness_ball a =
          let base =
            Array.map
              (fun u ->
                Prob.Estimate.dkw_eps
                  ~n:(Profile.observations (paging_profile u))
                  ~confidence:a.confidence)
              group
          in
          let churn =
            Array.map
              (fun u ->
                1.0 -. Mobility.residence_survival a.residence (profile_age u))
              group
          in
          Uncertainty.inflate (Uncertainty.per_row base) ~by:churn
        in
        let plan scheme =
          let d, rows =
            match scheme with
            | Blanket -> 1, counts_rows
            | Selective d -> Stdlib.min d c_local, counts_rows
            | Selective_diffuse d -> Stdlib.min d c_local, diffuse_rows
            | Selective_aged d | Selective_robust d ->
              Stdlib.min d c_local, aged_rows
          in
          let inst = Instance.create ~d (Lazy.force rows) in
          let greedy () = (Greedy.solve inst).Order_dp.strategy in
          let strategy =
            match scheme, aging_cfg with
            | Blanket, _ -> Strategy.page_all c_local
            | Selective_robust _, Some a ->
              (* Re-rank the candidate pool by worst-case EP over the
                 age-inflated per-row ball, like the robust-<eps>
                 solver but with radii from the residence-time model. *)
              (match Solver.most_robust (staleness_ball a) inst with
               | Some o -> o.Solver.strategy
               | None -> greedy ())
            | _ ->
              (* Selective, diffuse and aged (validation gives the robust
                 scheme an aging config). A budgeted estimator re-solves
                 through the runtime: a refreshed snapshot re-plans like
                 any other call, under the same per-call deadline. *)
              (match plan_budget_ms with
               | Some b ->
                 (match
                    Runner.solve ~budget_ms:b
                      ~chain:Solver.[ Greedy; Page_all ] inst
                  with
                  | Ok o -> o.Solver.strategy
                  | Error _ -> greedy ())
               | None -> greedy ())
          in
          inst, strategy
        in
        let positions = Array.map (fun u -> position.(u)) group in
        if not report_faults then
          Array.iter
            (fun cell ->
              if not (Hashtbl.mem universe_tbl cell) then
                (* Disk-based policies assume at most one cell per tick;
                   teleporting mobility models break that. *)
                invalid_arg
                  "Sim.run: user outside its uncertainty set (mobility \
                   jumps farther than the reporting policy allows)")
            positions;
        (* Every scheme replays the same per-call fault stream, so their
           numbers stay directly comparable. *)
        let call_frng = Prob.Rng.split rng_faults in
        List.iter
          (fun acc ->
            let inst, strategy = plan acc.s_scheme in
            page_call acc fmodel ~outage ~paged_mask ~all_cells ~universe
              ~positions (Prob.Rng.copy call_frng) strategy;
            acc.s_expected <-
              acc.s_expected +. Strategy.expected_paging inst strategy)
          accs;
        (* The reference network establishes the call, whatever each
           measured scheme achieved: all schemes observe identical
           histories, keeping their costs directly comparable. *)
        Array.iter (fun u -> observe_exactly u ~now) group;
        if config.call_duration > 0.0 then begin
          let length =
            Prob.Rng.exponential rng_traffic
              ~rate:(1.0 /. config.call_duration)
          in
          Array.iter (fun u -> busy_until.(u) <- now +. length) group
        end
      end;
      Event.schedule_after engine
        ~delay:(Traffic.next_arrival config.traffic rng_traffic)
        Call
    in

    Event.run_until engine ~stop:config.duration (fun at event ->
        match event with
        | Tick -> handle_tick at
        | Call -> handle_call at
        | Report_delivery { user; cell } ->
          (* A delayed report finally arrives: the profile estimator
             learns where the terminal was when it reported. *)
          incr updates;
          learn ~now:at user cell);

    let result = {
      duration = config.duration;
      moves = !moves;
      updates = !updates;
      total_calls = !total_calls;
      skipped_calls = !skipped_calls;
      reports_lost = !reports_lost;
      reports_delayed = !reports_delayed;
      outages = Faults.Outage.failures outage;
      polls = !polls;
      drift =
        Option.map
          (fun d ->
            let r = Drift.report d in
            {
              checks = r.Drift.checks;
              evaluated = r.Drift.evaluated;
              resolves = !resolves;
              last_resolve = !last_resolve;
              max_mean_tv = r.Drift.max_mean_tv;
            })
          dmon;
      per_scheme =
        List.map
          (fun acc ->
            {
              scheme = acc.s_scheme;
              calls = acc.s_calls;
              devices_sought = acc.s_devices;
              cells_paged = acc.s_cells;
              expected_paging = acc.s_expected;
              rounds_used = acc.s_rounds;
              per_call = Prob.Stats.Acc.summary acc.s_stats;
              robustness =
                {
                  retries = acc.s_retries;
                  retry_cells = acc.s_retry_cells;
                  retry_rounds = acc.s_retry_rounds;
                  escalations = acc.s_escalations;
                  escalate_cells = acc.s_escalate_cells;
                  residual_misses = acc.s_residual;
                  pages_lost = acc.s_pages_lost;
                  pages_blocked = acc.s_pages_blocked;
                };
            })
          accs;
    } in
    obs_record_result result;
    result
  end

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>duration %.0f, %d moves, %d reports, %d calls (%d skipped)@,"
    r.duration r.moves r.updates r.total_calls r.skipped_calls;
  if r.reports_lost > 0 || r.reports_delayed > 0 || r.outages > 0 then
    Format.fprintf ppf "faults: %d reports lost, %d delayed, %d cell outages@,"
      r.reports_lost r.reports_delayed r.outages;
  if r.polls > 0 then
    Format.fprintf ppf "aging: %d re-profiling polls@," r.polls;
  (match r.drift with
   | Some d ->
     Format.fprintf ppf
       "drift: %d checks (%d evaluated), %d re-solves%s, max mean TV %.3f@,"
       d.checks d.evaluated d.resolves
       (match d.last_resolve with
        | Some at -> Printf.sprintf " (last at t=%.0f)" at
        | None -> "")
       d.max_mean_tv
   | None -> ());
  List.iter
    (fun s ->
      Format.fprintf ppf
        "%-14s cells/call %.2f (expected %.2f) rounds/call %.2f"
        (scheme_to_string s.scheme)
        (float_of_int s.cells_paged /. float_of_int (Stdlib.max 1 s.calls))
        (s.expected_paging /. float_of_int (Stdlib.max 1 s.calls))
        (float_of_int s.rounds_used /. float_of_int (Stdlib.max 1 s.calls));
      if s.robustness <> no_faults_observed then
        Format.fprintf ppf
          " | retries %d esc %d lost %d blocked %d residual %d"
          s.robustness.retries s.robustness.escalations
          s.robustness.pages_lost s.robustness.pages_blocked
          s.robustness.residual_misses;
      Format.fprintf ppf "@,")
    r.per_scheme;
  Format.fprintf ppf "@]"
