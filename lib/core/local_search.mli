(** Steepest-descent local search over the full strategy space — the
    list reference for [Flat.hill_climb].

    The greedy heuristic is confined to cell-weight order; local search
    explores arbitrary ordered partitions and can escape the order
    restriction — on the §4.3 instance it recovers the true optimum
    317/49 that the heuristic misses. Production runs the
    allocation-free [Flat.run_hill_climb] (via [Solver]); this module
    is the op-for-op reference the tests hold it to.

    Moves considered: relocate one cell to another round (groups stay
    non-empty), and swap two cells between rounds. *)

(** [hill_climb ?objective ?cancel inst] — steepest-descent from the
    greedy solution until no improving move exists, with the total
    number of move evaluations. Deterministic; never [exact].
    Unlike the exact searches, local search is anytime: when [cancel]
    fires mid-climb it returns its best-so-far strategy instead of
    raising — the working state is valid at every step, so there is
    always something to return. *)
val hill_climb :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.t ->
  Strategy.solution * int
