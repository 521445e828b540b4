(** End-to-end simulation: users roam a hex field under a mobility
    model, report their location according to a {!Reporting} policy, and
    Poisson conference-call arrivals trigger searches.

    For each call the system builds a Conference Call instance over the
    union of the participants' uncertainty sets, estimates each row with
    the scheme's location estimator, runs the paging strategy, and
    counts the cells actually paged against ground truth. Each
    estimator's rows are built once per call and shared by every scheme
    that pages from them. All schemes observe identical mobility,
    traffic and observation history (every scheme locates all
    participants), so their costs are directly comparable within one
    run.

    Optionally calls have a duration: while a user is on a call the
    system tracks their cell continuously (an ongoing call needs no
    search — §1.1), and busy users cannot join new conferences.

    One executor pages every call, round by round, against the
    participants' true cells, and stops once all have answered. With
    [faults = Some f] it also injects the {!Faults} model: pages are
    lost, paged devices answer only with probability [q] (§5), cells
    suffer transient outages, and location reports are lost or delayed
    — after which the configured retry policy re-pages and possibly
    escalates to blanket paging. [faults = None] runs the same executor
    with {!Faults.none}, so it equals [faults = Some Faults.none] by
    construction. The fault stream has its own split of the seed PRNG,
    so enabling faults never perturbs mobility or traffic, and every
    faulty run is reproducible. *)

type scheme =
  | Blanket  (** page the whole uncertainty set in one round *)
  | Selective of int
      (** weight-order heuristic with delay d, decayed-count profiles *)
  | Selective_diffuse of int
      (** same heuristic, but rows are the mobility model's diffusion of
          the last known cell — "the system knows the motion statistics" *)
  | Selective_aged of int
      (** profile rows evolved through the residence-time aging kernel
          for each user's profile age (ticks since last exact sighting);
          requires [aging]. At age 0 (or [age_cap = 0]) identical to
          [Selective] bit for bit. *)
  | Selective_robust of int
      (** aged rows, planned by re-ranking the solver's candidate pool
          by worst-case EP over a per-user uncertainty ball whose radius
          grows with profile age (DKW sampling radius + residence-model
          churn); requires [aging]. *)

(** Robustness observables accumulated over a run's calls; all zero when
    faults are disabled or never fired. *)
type fault_metrics = {
  retries : int;  (** extra re-page cycles issued *)
  retry_cells : int;  (** cells paged during retry cycles *)
  retry_rounds : int;  (** rounds spent retrying, incl. backoff idling *)
  escalations : int;  (** calls that fell back to a final blanket round *)
  escalate_cells : int;  (** cells paged by escalation rounds *)
  residual_misses : int;  (** devices never found by this scheme's paging *)
  pages_lost : int;  (** pages lost on the wireless channel *)
  pages_blocked : int;  (** pages suppressed because the cell was down *)
}

type scheme_metrics = {
  scheme : scheme;
  calls : int;
  devices_sought : int;
  cells_paged : int;
      (** ground-truth total, including retry and escalation pages *)
  expected_paging : float;  (** model EP summed over calls (fault-free) *)
  rounds_used : int;  (** ground-truth rounds until all found or given up *)
  per_call : Prob.Stats.summary;  (** cells paged per call *)
  robustness : fault_metrics;
}

(** Observables of the estimated-matrix path: how often the drift
    monitor looked, how often it re-estimated, and the worst gap seen. *)
type drift_metrics = {
  checks : int;  (** drift checks performed (one per call arrival) *)
  evaluated : int;  (** checks with enough fresh evidence for a verdict *)
  resolves : int;  (** drift triggers → snapshot refresh + re-solve *)
  last_resolve : float option;  (** sim time of the latest refresh *)
  max_mean_tv : float;  (** worst mean TV distance over evaluated checks *)
}

type result = {
  duration : float;
  moves : int;
  updates : int;  (** reports received under the configured policy *)
  total_calls : int;
  skipped_calls : int;  (** arrivals dropped because a participant was busy *)
  reports_lost : int;  (** location reports lost in transit *)
  reports_delayed : int;  (** location reports delivered late *)
  outages : int;  (** cell up-to-down transitions over the run *)
  polls : int;
      (** age-triggered re-profiling queries (participants polled before
          planning because their profile exceeded [reprofile_age]) *)
  drift : drift_metrics option;
      (** set iff the run used a [Snapshot] estimator with a monitor *)
  per_scheme : scheme_metrics list;
}

(** Which matrix the paging planner sees. The planner is the same under
    both: a selective call plans with the greedy heuristic on the rows
    it sees, with no wall-clock deadline, so a seed's result does not
    depend on machine load. *)
type estimator =
  | Live
      (** page straight from the continuously-updated profiles (the
          historical behaviour of this simulator) *)
  | Snapshot of {
      warmup : float;
          (** sim time at which the paging matrix is frozen from the
              live profiles; before that the planner uses the live ones *)
      drift : Drift.config option;
          (** monitor comparing recent observations against the frozen
              snapshot; a trigger re-estimates (refreshes the snapshot)
              and re-solves. [None] is the stale-matrix baseline: the
              snapshot is never refreshed. *)
    }

(** The residence-time layer: how profile age translates into belief
    evolution and uncertainty growth, and the law ground-truth motion
    follows: with an aging config, motion is the semi-Markov walk
    ({!Mobility.semi_step}) so actual dwell times obey [residence],
    which excludes a [mobility_schedule]. *)
type aging_config = {
  residence : Mobility.residence;
      (** per-cell dwell law (uniform across cells) *)
  age_cap : int;
      (** profile ages are clamped here before belief evolution — the
          aged matrix approaches stationarity anyway and the cap bounds
          work per row; [0] disables evolution (frozen snapshots) *)
  dwell_cap : int;  (** dwell-age truncation of the aging kernel *)
  reprofile_age : int option;
      (** poll call participants whose profile age exceeds this before
          planning (counted in [result.polls]); [None] never polls *)
  confidence : float;
      (** confidence for the DKW component of the staleness radius *)
}

(** Exponential residence of mean 6, age cap 30, dwell cap 32, no
    re-profiling, confidence 0.9. *)
val default_aging : aging_config

type config = {
  hex : Hex.t;
  mobility : Mobility.t;
      (** the system's calibrated motion model: drives the diffusion
          estimator, and the actual motion whenever [mobility_schedule]
          has no entry for the current time *)
  areas : Location_area.t;
  users : int;
  traffic : Traffic.t;
  schemes : scheme list;
  reporting : Reporting.policy;
  profile_decay : float;
  profile_smoothing : float;
  mobility_schedule : (float * Mobility.t) list;
      (** piecewise actual mobility: (start_time, model) entries sorted by
          time; before the first entry (and when empty) users follow
          [mobility]. Lets commuter patterns (morning/evening drift)
          diverge from the system's single calibrated model. *)
  call_duration : float;
      (** mean call length (exponential); [0] for instantaneous calls *)
  track_ongoing : bool;
      (** when true, the network observes the exact cell of every user on
          an ongoing call each tick (§1.1: devices in a call communicate
          with base stations continuously); when false, on-call users are
          as opaque as idle ones — the ablation switch for E17 *)
  faults : Faults.t option;
      (** fault-injection model; [None] is the perfectly reliable
          simulator, i.e. [Some Faults.none]. With report loss or delay
          a device may fall outside the computed uncertainty universe
          (the network's view went stale); the executor then counts it
          as a residual miss instead of raising, and only an
          [Escalate ~to_blanket:true] retry can still recover it. *)
  estimator : estimator;
      (** [Live] pages from the always-fresh profiles; [Snapshot]
          freezes the paging matrix at [warmup] and models a deployed
          estimator that must {e detect} staleness to refresh *)
  aging : aging_config option;
      (** residence-time layer; required by [Selective_aged] and
          [Selective_robust] schemes, [None] is the ageless simulator
          (plain Markov motion) *)
  duration : float;  (** mobility ticks happen at every integer time *)
  seed : int;
}

(** [default_config ()] — an 8×8 field, 3×3 location areas, area
    reporting, 64 users, random-walk mobility, 3-party instantaneous
    conferences, 400 time units, no faults. *)
val default_config : unit -> config

(** [run config] executes the simulation deterministically for the
    config's seed.
    @raise Invalid_argument on inconsistent dimensions, non-positive
    user counts, traffic drawing from more users than [users], an empty
    scheme list, an unsorted mobility schedule, out-of-range profile
    decay/smoothing, a negative or non-finite [call_duration], or bad
    reporting/fault parameters; and, mid-run, when a call participant
    is outside their uncertainty set although no report fault is
    configured (the motion jumps farther than the reporting policy
    allows, e.g. {!Mobility.teleport} under [Movement] reporting). *)
val run : config -> result

val scheme_to_string : scheme -> string
val pp_result : Format.formatter -> result -> unit
