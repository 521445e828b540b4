let suburb ?(seed = 2002) () =
  let hex = Hex.create ~rows:8 ~cols:8 in
  let users = 64 in
  {
    Sim.hex;
    mobility = Mobility.random_walk hex ~stay:0.4;
    areas = Location_area.grid hex ~block_rows:4 ~block_cols:4;
    users;
    traffic = Traffic.create ~rate:0.5 ~group_size:(Traffic.Fixed 3) ~users;
    schemes = [ Sim.Blanket; Sim.Selective 3; Sim.Selective_diffuse 3 ];
    reporting = Reporting.Area;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule = [];
    call_duration = 0.0;
    track_ongoing = true;
    faults = None;
    estimator = Sim.Live;
    aging = None;
    duration = 300.0;
    seed;
  }

let commuter_day ?(seed = 2002) () =
  let hex = Hex.create ~rows:8 ~cols:12 in
  let users = 90 in
  let duration = 360.0 in
  let calm = Mobility.random_walk hex ~stay:0.4 in
  let eastbound = Mobility.drift_walk hex ~stay:0.2 ~east_bias:4.0 in
  let westbound =
    (* Mirror the drift by biasing against eastern columns: build the
       westbound matrix by transposing the column preference. *)
    let n = Hex.cells hex in
    let rows =
      Array.init n (fun cell ->
          let mirror c =
            let row, col = Hex.coords hex c in
            Hex.index hex ~row ~col:(11 - col)
          in
          let source = eastbound.Mobility.rows.(mirror cell) in
          let out = Array.make n 0.0 in
          Array.iteri (fun target p -> out.(mirror target) <- p) source;
          out)
    in
    Mobility.create rows
  in
  {
    Sim.hex;
    mobility = calm;
    areas = Location_area.grid hex ~block_rows:4 ~block_cols:4;
    users;
    traffic =
      Traffic.create ~rate:0.7 ~group_size:(Traffic.Uniform_range (2, 4)) ~users;
    schemes = [ Sim.Blanket; Sim.Selective 3; Sim.Selective_diffuse 3 ];
    reporting = Reporting.Area;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule =
      [ 0.0, eastbound; duration /. 3.0, calm; 2.0 *. duration /. 3.0, westbound ];
    call_duration = 0.0;
    track_ongoing = true;
    faults = None;
    estimator = Sim.Live;
    aging = None;
    duration;
    seed;
  }

(* Model misspecification end-to-end: users sit still long enough for
   the system to freeze an estimated paging matrix, then a commute
   relocates everyone. With the drift monitor on, the burst of
   relocation reports triggers re-estimation + re-solving; with it off
   (drift = None) the sim is the stale-matrix baseline. *)
let drifting_commuter ?(seed = 2002) () =
  let hex = Hex.create ~rows:8 ~cols:12 in
  let users = 90 in
  let duration = 360.0 in
  (* Static "at home/office" phase (identity kernel): the estimate can
     converge, and a converged estimate stays exactly right until the
     commute — so any realized-vs-nominal gap is attributable to
     staleness, not to residual motion. *)
  let parked =
    let n = Hex.cells hex in
    Mobility.create
      (Array.init n (fun cell ->
           let row = Array.make n 0.0 in
           row.(cell) <- 1.0;
           row))
  in
  let eastbound = Mobility.drift_walk hex ~stay:0.2 ~east_bias:4.0 in
  {
    Sim.hex;
    mobility = parked;
    areas = Location_area.grid hex ~block_rows:4 ~block_cols:4;
    users;
    traffic =
      Traffic.create ~rate:0.7 ~group_size:(Traffic.Uniform_range (2, 4)) ~users;
    schemes = [ Sim.Blanket; Sim.Selective 3 ];
    reporting = Reporting.Area;
    profile_decay = 0.9;
    (* Tiny smoothing: parked users really are where the counts say,
       so a near-deterministic row keeps the nominal EP honest. *)
    profile_smoothing = 0.001;
    (* The commute is a transition, not a permanent regime: users
       relocate east for 25 ticks, then settle at the new location — so
       a refreshed estimate becomes valid again and realized cost can
       re-converge to the re-solved nominal EP. *)
    mobility_schedule = [ (180.0, eastbound); (205.0, parked) ];
    (* Short calls: while a line is up the network tracks the terminal,
       so every call yields a few exact sightings — the realistic
       evidence rate that lets rebuilt rows sharpen again. *)
    call_duration = 2.0;
    track_ongoing = true;
    faults = None;
    estimator =
      Sim.Snapshot
        {
          warmup = 120.0;
          (* A longer, lower-bar evidence window than {!Drift.default}:
             parked users are sighted only on the occasional call, so
             post-commute corrections must get by on sparse exact
             sightings; the commute's relocation burst clears the bar
             either way. *)
          drift =
            Some
              {
                Drift.window = 40.0;
                min_obs = 2;
                min_users = 6;
                threshold = 0.15;
                cooldown = 20.0;
              };
          budget_ms = Some 5.0;
        };
    aging = None;
    duration;
    seed;
  }

(* A dense 6x6 field with per-2x2 location areas, high call rate and
   5-unit mean call durations: many busy lines, much free tracking. *)
let busy_campus ?(seed = 2002) () =
  let hex = Hex.create ~rows:6 ~cols:6 in
  let users = 48 in
  {
    Sim.hex;
    mobility = Mobility.random_walk hex ~stay:0.5;
    areas = Location_area.grid hex ~block_rows:2 ~block_cols:2;
    users;
    traffic =
      Traffic.create ~rate:1.5 ~group_size:(Traffic.Uniform_range (2, 3)) ~users;
    schemes = [ Sim.Blanket; Sim.Selective 2; Sim.Selective_diffuse 2 ];
    reporting = Reporting.Area;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule = [];
    call_duration = 5.0;
    track_ongoing = true;
    faults = None;
    estimator = Sim.Live;
    aging = None;
    duration = 300.0;
    seed;
  }

(* The [suburb] workload on degraded infrastructure: 5% page loss, §5
   response probability q = 0.85, transient cell outages (hazard
   0.002/tick, mean repair 10 ticks), 10% report loss, mean report
   delay 2 ticks, and an escalate-after-one-repeat retry policy. The
   robustness baseline for comparing schemes' graceful degradation. *)
let degraded_downtown ?(seed = 2002) () =
  let base = suburb ~seed () in
  {
    base with
    Sim.faults =
      Some
        {
          Faults.page_loss = 0.05;
          detect_q = 0.85;
          outage_rate = 0.002;
          outage_repair = 10.0;
          report_loss = 0.1;
          report_delay = 2.0;
          retry = Faults.Escalate { after = 1; to_blanket = true };
        };
  }

(* Residence-time laboratory: ground truth moves by the semi-Markov
   walk under [residence] (mean dwell 6 ticks), reports arrive only
   every 8 ticks (Time policy), so profiles are genuinely stale at page
   time — ages spread over [0, 8). The scheme lineup compares the
   age-blind selective baseline against age-evolved rows and the
   staleness-inflated robust re-rank, under identical motion. The
   random walk's stay probability is matched to the mean dwell
   (stay = 1 − 1/mean), so under the exponential law the semi-Markov
   walk coincides with the plain chain — isolating the residence-time
   *variance* as the experimental variable. *)
let residence_lab ?(seed = 2002) ~residence () =
  let hex = Hex.create ~rows:8 ~cols:8 in
  let users = 64 in
  let mean_dwell = 6.0 in
  {
    Sim.hex;
    mobility = Mobility.random_walk hex ~stay:(1.0 -. (1.0 /. mean_dwell));
    areas = Location_area.grid hex ~block_rows:4 ~block_cols:4;
    users;
    traffic = Traffic.create ~rate:0.5 ~group_size:(Traffic.Fixed 3) ~users;
    schemes =
      [ Sim.Blanket; Sim.Selective 3; Sim.Selective_aged 3;
        Sim.Selective_robust 3 ];
    reporting = Reporting.Time 8;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    mobility_schedule = [];
    call_duration = 0.0;
    track_ongoing = true;
    faults = None;
    estimator = Sim.Live;
    aging = Some { Sim.default_aging with residence; drive_motion = true };
    duration = 300.0;
    seed;
  }

let residence_exp ?seed () =
  residence_lab ?seed ~residence:(Mobility.Exponential { mean = 6.0 }) ()

(* The first scale at which the truncated mean [Mobility.residence_mean]
   reaches 6: a bisection on that float sum found it, and test_aging pins
   both it and the sum one ulp below it. *)
let pareto_dwell = Mobility.Pareto { alpha = 1.6; scale = 0x1.a35f1f8160d7p+1 }

let residence_pareto ?seed () = residence_lab ?seed ~residence:pareto_dwell ()

let all =
  [
    "suburb", suburb;
    "commuter-day", commuter_day;
    "drifting-commuter", drifting_commuter;
    "busy-campus", busy_campus;
    "degraded-downtown", degraded_downtown;
    "residence-exp", residence_exp;
    "residence-pareto", residence_pareto;
  ]

let find name =
  match List.assoc_opt (String.lowercase_ascii name) all with
  | Some build -> Ok build
  | None ->
    Error
      (Printf.sprintf "unknown scenario %S (expected one of: %s)" name
         (String.concat " | " (List.map fst all)))
