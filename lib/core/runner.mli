(** Deadline-budgeted anytime solver runtime.

    The exact methods are exponential (Theorem 3.8 makes that
    unavoidable) and the §4 heuristic is the only always-fast path, yet
    a paging controller serving live calls must return the best strategy
    it can find {e within a time budget}, every time. The runner wraps
    {!Solver.solve} with:

    - a budget on the wall clock ({!Obs.now}: monotonized wall time),
      enforced through the cooperative cancellation tokens threaded into
      every solver hot loop;
    - a declarative {e fallback chain} — an ordered list of
      {!Solver.spec}s, tried best-first; a stage that times out or does
      not apply falls through to the next, and the report records why;
    - a structured error taxonomy replacing the stringly
      [Invalid_argument] escapes of the raw solvers at this boundary.

    Guarantees, for any valid instance and any request that passes
    {!validate}:
    + {!run} terminates within budget plus a small grace window (the
      terminal [Page_all] stage is O(m·c) and runs unconditionally);
    + the winner is a valid strategy for the instance ({!Strategy}
      partition invariants);
    + winner EP ≤ the [Page_all] baseline EP = c (Lemma 2.1 gives
      EP ≤ c for every strategy, and [Page_all] always completes). *)

(** Why a stage (or a whole run) failed. *)
type error =
  | Timeout  (** budget fired mid-search, or stage skipped: budget gone *)
  | Inapplicable of string
      (** the method does not apply to this instance (e.g. B&B with
          d ≠ 2, guarded exact search on a huge instance) *)
  | Invalid_input of string  (** the request failed {!validate} *)
  | Internal of string  (** unexpected exception — a bug, not user error *)

type stage_status =
  | Completed  (** ran to its normal end within budget *)
  | Degraded
      (** anytime stage: the deadline fired mid-search and it returned
          its best-so-far result (still a valid strategy) *)
  | Failed of error

type stage_report = {
  spec : Solver.spec;
  status : stage_status;
  elapsed_ms : float;
  expected_paging : float option;  (** when the stage produced a result *)
  robust_ep : float option;
      (** worst-case EP of the stage's strategy over the uncertainty
          ball — set only in uncertainty-aware runs *)
  raced : bool;
      (** the stage ran concurrently with the rest of the chain on a
          domain pool ([?pool] with more than one domain) *)
}

(** What a run decided: the chain, each stage, the winner or the
    failure, and the timings. Nothing is computed for the report beyond
    the decision; a reader that wants the winner's lower-bound ratio or
    its certified EP range over the ball computes them itself. *)
type run_report = {
  chain : Solver.spec list;  (** as actually executed (baseline appended) *)
  objective : Objective.t;
  budget_ms : float option;
  winner : (Solver.spec * Solver.outcome) option;
  stages : stage_report list;
      (** in execution order; the winner is the last stage in normal
          runs, and the stage with the least [robust_ep] in
          uncertainty-aware runs *)
  total_ms : float;
  failure : error option;  (** set iff [winner = None] *)
}

(** [Best_exact → Branch_and_bound → Local_search → Greedy → Page_all]. *)
val default_chain : Solver.spec list

(** [resolve_chain ~chain ~spec] is the chain a runner-path solve
    executes: the explicit [chain] if given, else the one-stage chain
    [[spec]], else {!default_chain}. The CLI and the daemon both decide
    it here. *)
val resolve_chain :
  chain:Solver.spec list option -> spec:Solver.spec option -> Solver.spec list

(** Chains by name ("default", "fast", "heuristic", "exact") or as
    comma-separated solver specs ("bnb,local-search,page-all"); specs as
    in {!Solver.spec_of_string}. It inverts {!chain_to_string} on every
    non-empty chain. *)
val chain_of_string : string -> (Solver.spec list, string) result

val chain_to_string : Solver.spec list -> string

(** [always_fast spec] holds for the stages cheap enough to run after
    the deadline, inside the grace window: [Greedy], [Page_all] and
    [Bandwidth_limited] (polynomial, small constants). {!run} skips
    every other stage once the budget is gone; the daemon's
    load-shedding ladder keeps the same set. *)
val always_fast : Solver.spec -> bool

(** [validate ?objective ?budget_ms ?uncertainty ~m ()] is the one
    check of a solve request on [m] devices: the objective (default
    [Find_all]) and the uncertainty ball against [m], and a positive,
    finite budget. The error names the field. {!run} applies it first;
    the CLI, the daemon and the load generator call it at their
    boundary, before any side effect. *)
val validate :
  ?objective:Objective.t ->
  ?budget_ms:float ->
  ?uncertainty:Uncertainty.t ->
  m:int ->
  unit ->
  (unit, string) result

(** [run ?objective ?budget_ms ?clock ?chain inst] executes
    the chain best-first and returns the full report.

    A request that fails {!validate} runs no stage and fails with
    [Invalid_input]: a budget of [infinity] or [nan] would arm a
    deadline that never fires.

    Budget semantics: all stages share one deadline, [budget_ms] from
    the start of the run. A stage started before the deadline runs with
    a cancellation token on it; once the deadline has passed, remaining
    expensive stages are skipped (recorded as [Failed Timeout]) and only
    the {!always_fast} ones still run, each under its own 100 ms grace
    token, started when the stage starts. Without a budget no token is
    armed and every exact stage keeps its size guard, so it is
    [Inapplicable] at once above it: [Exhaustive] needs c ≤ 16 and
    dᶜ ≤ 8·10⁶, [Branch_and_bound] c ≤ 26, [Class_based] at most 5·10⁶
    per-class count compositions, and [Best_exact] either of the first
    two. With a budget every guard is lifted — the deadline, not the
    guard, bounds the work.

    [Page_all] is appended when absent so the chain cannot end
    empty-handed. [clock] (default {!Obs.now}) is exposed for tests.
    Never raises: all solver escapes are folded into the taxonomy
    above.

    With [?uncertainty], the run switches from first-success to
    {e re-ranking}: every stage still within budget runs, each
    completed stage's strategy is scored by its worst-case EP over the
    ball ({!Uncertainty.robust_ep}, recorded in
    [stage_report.robust_ep]), and the winner is the stage with the
    least worst-case EP (ties to the earlier chain entry), so the
    winner's worst-case EP is the least [robust_ep] of the report's
    stages. Budget semantics
    are unchanged — overdue expensive stages are still skipped, so the
    run degrades to re-ranking whatever candidates fit the budget.

    With [?pool] of more than one domain, the chain's stages {e race}.
    Both modes run every stage through one stage executor (the overdue
    skip, the per-stage token, the error taxonomy, the stage report)
    and pick the winner with one rule; only the schedule differs. The
    sequential schedule runs the stages in chain order and, in
    first-success mode, stops at the first success. The raced schedule
    starts all of them concurrently on the pool; in first-success mode
    the winner is still the minimum-chain-index success — the stage the
    sequential schedule chooses, since a success at index i makes every
    later stage a definitive loser regardless of what the earlier ones
    do. Losers are cancelled through their [Cancel] tokens the moment a
    better-or-equal stage completes, and unwind within one poll
    interval (anytime stages return best-so-far as [Degraded]). In
    re-ranking mode all stages run to their own end — every candidate's
    score is needed. Stage reports carry [raced = true]; the report is
    otherwise unchanged in shape. The default (or any one-domain) pool
    takes the sequential schedule. Wall-clock under a budget is still
    bounded by budget + grace: every raced token also watches the
    shared deadline, and a raced stage that starts after it gets the
    same skip or grace window as in the sequential schedule. These
    tokens are the only deadline mechanism; the pool adds none.
    [clock], when overridden together with [?pool], is called from
    several domains and must be thread-safe (the default {!Obs.now}
    is).

    [?arena] names the {!Flat} scratch arena the sequential stages
    reuse (see {!Solver.solve}); it defaults to the calling domain's
    {!Flat.domain_arena}. Raced stages always take their own domain's
    arena, so the supplied one is only touched from the calling domain.
    It never changes a result. *)
val run :
  ?objective:Objective.t ->
  ?budget_ms:float ->
  ?clock:(unit -> float) ->
  ?chain:Solver.spec list ->
  ?uncertainty:Uncertainty.t ->
  ?pool:Exec.Pool.t ->
  ?arena:Flat.t ->
  Instance.t ->
  run_report

val error_to_string : error -> string
val stage_status_to_string : stage_status -> string
