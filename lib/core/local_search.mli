(** Local-search solvers over the full strategy space.

    The greedy heuristic is confined to cell-weight order; local search
    explores arbitrary ordered partitions and can escape the order
    restriction — on the §4.3 instance it recovers the true optimum
    317/49 that the heuristic misses. Useful as a stronger (unproven)
    solver at sizes where exact search is impossible, and as an
    independent check on the exact solvers at small sizes.

    Moves considered: relocate one cell to another (possibly new empty →
    no, groups stay non-empty) round, and swap two cells between rounds.
    All randomness comes from the supplied generator. *)

type result = {
  strategy : Strategy.t;
  expected_paging : float;
  iterations : int;  (** total move evaluations *)
}

(** [hill_climb ?objective ?cancel inst] — steepest-descent from the
    greedy solution until no improving move exists. Deterministic.
    Unlike the exact searches, local search is anytime: when [cancel]
    fires mid-climb it returns its best-so-far strategy instead of
    raising — the working state is valid at every step, so there is
    always something to return. This list implementation is the
    reference the allocation-free [Flat.hill_climb] is tested against;
    [Solver] runs the flat one. *)
val hill_climb :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.t ->
  result

(** [anneal ?objective ?cancel inst rng ~steps ~t0 ~cooling] — simulated
    annealing: random relocate/swap moves accepted when improving or
    with probability exp(−Δ/T), T decaying geometrically from [t0] by
    [cooling] per step; returns the best strategy seen. Ends with a
    hill-climb polish. Anytime under [cancel], like {!hill_climb}.
    @raise Invalid_argument when parameters are out of range. *)
val anneal :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.t ->
  Prob.Rng.t ->
  steps:int ->
  t0:float ->
  cooling:float ->
  result

(** [solve ?objective ?cancel inst rng] — annealing with sensible
    defaults scaled to instance size, then hill-climbing; never worse
    than the greedy heuristic (it starts there). *)
val solve :
  ?objective:Objective.t -> ?cancel:Cancel.t -> Instance.t -> Prob.Rng.t -> result
