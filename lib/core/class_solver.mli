(** Exact solver for instances with few distinct cell types.

    §5 sketches an approximation scheme for the subclass where the
    probabilities fall into a constant number of groups; this module
    implements the underlying idea exactly. Two cells are equivalent
    when every device gives them the same probability; EP depends only
    on {e how many} cells of each class are paged per round, so
    {!Optimal.exhaustive} runs on per-class count vectors — Π_t (n_t + 1)
    prefixes instead of 2ᶜ. Exact for any instance; practical whenever
    the classes are few (uniform instances, the §4.3 instance,
    reduction outputs). *)

(** [classes ?eps inst] groups cells by probability column (tolerance
    [eps] per entry, default exact equality); returns representative ->
    members. *)
val classes : ?eps:float -> Instance.t -> int array array

(** [solve ?objective ?cancel ?eps ?max_candidates inst] — exact
    optimum, marked [exact]; [cancel] is polled at every prefix the
    search visits. The search runs over [classes ?eps inst].
    @raise Invalid_argument when the Π_t C(n_t + d − 1, d − 1) per-class
    count compositions exceed [max_candidates] (default 5,000,000).
    @raise Cancel.Cancelled when the token fires mid-search. *)
val solve :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  ?eps:float ->
  ?max_candidates:int ->
  Instance.t ->
  Strategy.solution

(** [approximate ?objective ?max_candidates inst ~grid] — the §5
    approximation-scheme idea made concrete: snap every probability to a
    grid of [grid] equal intervals (then renormalize rows), solve the
    snapped instance {e exactly} with the class machinery, and return
    the resulting strategy evaluated on the {e original} instance. With
    coarse grids many cells collapse into few classes, making the exact
    search cheap; finer grids trade running time for fidelity. The
    returned [expected_paging] is the true EP of the strategy on the
    original instance (not the snapped surrogate), and the result is
    not marked [exact].
    @raise Invalid_argument when [grid < 1] or the snapped instance
    still has too many classes. *)
val approximate :
  ?objective:Objective.t ->
  ?max_candidates:int ->
  Instance.t ->
  grid:int ->
  Strategy.solution
