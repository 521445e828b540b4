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

(** [classes inst] groups cells whose probability columns are equal
    entry for entry; returns representative -> members. *)
val classes : Instance.t -> int array array

(** [solve ?objective ?cancel ?guard inst] — exact optimum, marked
    [exact]; [cancel] is polled at every prefix the search visits. The
    search runs over [classes inst]. [guard] (default [true]) rejects an
    instance whose Π_t C(n_t + d − 1, d − 1) per-class count
    compositions exceed 5·10⁶; pass [~guard:false] only with a real
    [cancel] token.
    @raise Invalid_argument when guarded and the compositions exceed
    the limit.
    @raise Cancel.Cancelled when the token fires mid-search. *)
val solve :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  ?guard:bool ->
  Instance.t ->
  Strategy.solution

(** [approximate ?objective inst ~grid] — the §5
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
  Instance.t ->
  grid:int ->
  Strategy.solution
