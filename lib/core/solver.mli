(** Uniform front-end over all strategy constructors; used by the CLI,
    the simulator and the benchmark harness. *)

type spec =
  | Greedy  (** the §4 heuristic (Theorem 4.8) *)
  | Page_all  (** the d = 1 / GSM-IS-41 baseline: one round, all cells *)
  | Bandwidth_limited of int  (** greedy with a per-round cap (§5) *)
  | Exhaustive  (** exact, small c only *)
  | Branch_and_bound  (** exact, d = 2; c ≤ 26 when guarded *)
  | Best_exact  (** cheapest applicable exact method *)
  | Local_search  (** hill-climbing from the greedy solution *)
  | Class_based  (** exact when cells fall into few types *)
  | Robust of { eps : float; tv : float }
      (** re-ranks the fast candidate pool ([Local_search], [Greedy],
          [Page_all]) by worst-case EP over the {!Uncertainty} ball
          ([eps] per entry, [tv] total-variation per row); returns the
          candidate with the best certified bound. The outcome's
          [expected_paging] is still the nominal EP of the chosen
          strategy. Parse as ["robust"], ["robust-<eps>"], or
          ["robust-<eps>:<tv>"]. *)

(** The one solution record, under the name the runner and the daemon
    spell. [exact] is whether the strategy is provably optimal: each
    method sets it (greedy when m = 1 or d = 1, page-all when d = 1,
    the exact searches always, the rest never). *)
type outcome = Strategy.solution = {
  strategy : Strategy.t;
  expected_paging : float;
  exact : bool;
}

(** [solve ?objective ?cancel ?unguarded ?arena spec inst] runs the
    chosen method. [cancel] is threaded into the method's hot loop (see
    {!Cancel}). Each exact method owns its size guard
    ({!Optimal.exhaustive}, {!Optimal.branch_and_bound_d2},
    {!Optimal.best}, {!Class_solver.solve}); [~unguarded:true] lifts it
    for every exact spec ([Exhaustive], [Branch_and_bound], [Best_exact],
    [Class_based]) — only meaningful together with a deadline token, as
    the {!Runner} does.

    [Greedy], [Bandwidth_limited] and [Local_search] (and the [Robust]
    re-rank over them) always run on the allocation-free {!Flat} cores. [arena] only names the scratch arena
    they reuse across solves; it defaults to {!Flat.domain_arena} and
    never changes a result. Exact methods ignore it.
    @raise Invalid_argument when the method does not apply (e.g.
    [Best_exact] on a huge instance, [Branch_and_bound] with d ≠ 2 or,
    guarded, c > 26).
    @raise Cancel.Cancelled when the token fires before a non-anytime
    method finishes ([Local_search] instead returns best-so-far). *)
val solve :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  ?unguarded:bool ->
  ?arena:Flat.t ->
  spec ->
  Instance.t ->
  outcome

(** [most_robust ?objective ?cancel ?arena u inst] solves each of
    {!robust_candidates} in order and returns the outcome whose strategy
    has the least worst-case EP over the ball [u]
    ({!Uncertainty.robust_ep}); ties go to the earlier (stronger)
    candidate. A candidate that does not apply is skipped; [None] when
    none applies. [Robust] is this over {!Uncertainty.uniform}; the
    simulator's robust scheme runs it over an age-inflated ball.
    @raise Cancel.Cancelled when [cancel] fires between candidates. *)
val most_robust :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  ?arena:Flat.t ->
  Uncertainty.t ->
  Instance.t ->
  outcome option

(** [spec_of_string s] reads a spec in the {!Wire.Spec} grammar: words
    in any case, parts trimmed, decimal numbers. It inverts
    {!spec_to_string}, which prints robust radii exactly. *)
val spec_of_string : string -> (spec, string) result
val spec_to_string : spec -> string

(** All parameterless specs, for CLI listings and comparison sweeps. *)
val basic_specs : spec list

(** The candidate pool a {!Robust} solve re-ranks by worst-case EP. *)
val robust_candidates : spec list
