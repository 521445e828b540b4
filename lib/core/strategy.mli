(** Oblivious paging strategies.

    A strategy is an ordered partition [S₁, …, S_t] of the cells: round
    [r] pages every cell of [Sᵣ], and the search stops at the first round
    whose cumulative prefix satisfies the objective (for the Conference
    Call problem: contains all devices). *)

type t = private { groups : int array array }

(** [create groups] validates that the groups are non-empty, disjoint and
    sorted internally; cell indices may cover any ground set.
    @raise Invalid_argument on empty/overlapping groups. *)
val create : int array array -> t

(** [validate ~c t] additionally checks that the groups partition
    [{0, …, c−1}]. *)
val validate : c:int -> t -> (unit, string) result

(** [of_sizes ~order ~sizes] cuts the cell sequence [order] into
    consecutive groups of the given sizes.
    @raise Invalid_argument when sizes are non-positive or do not sum to
    the length of [order]. *)
val of_sizes : order:int array -> sizes:int array -> t

(** [page_all c] is the single-round strategy paging every cell. *)
val page_all : int -> t

(** [singletons order] pages one cell per round, following [order]. *)
val singletons : int array -> t

val length : t -> int
val groups : t -> int array array
val sizes : t -> int array

(** [success_by_round ?objective inst t] is F_r = P[stop by round r+1]
    for r = 0 … t−1 (Lemma 2.1's Pr[F_r]). Default objective: [Find_all]. *)
val success_by_round : ?objective:Objective.t -> Instance.t -> t -> float array

(** [expected_paging ?objective inst t] is the expected number of cells
    paged until the objective is met (Lemma 2.1):
    EP = c − Σ_{r=1}^{t−1} |S_{r+1}|·F_r.
    @raise Invalid_argument when the strategy does not partition the
    instance's cells or is longer than [inst.d]. *)
val expected_paging : ?objective:Objective.t -> Instance.t -> t -> float

(** [expected_cost ?objective inst ~cell_cost t] generalizes
    {!expected_paging} to per-cell paging costs:
    E[cost] = cost([c]) − Σ_{r} cost(S_{r+1})·F_r. With unit costs this
    is exactly {!expected_paging}.
    @raise Invalid_argument on length mismatch or invalid strategy. *)
val expected_cost :
  ?objective:Objective.t -> Instance.t -> cell_cost:float array -> t -> float

(** [expected_paging_unchecked] skips the partition check (hot path for
    exhaustive search). *)
val expected_paging_unchecked :
  ?objective:Objective.t -> Instance.t -> t -> float

(** [expected_rounds ?objective inst t] is the expected number of rounds
    until the search stops. *)
val expected_rounds : ?objective:Objective.t -> Instance.t -> t -> float

(** [cost_on_outcome ?objective t ~m ~positions] is the number of cells
    actually paged when device [i] sits in cell [positions.(i)] — the
    deterministic cost of one ground-truth outcome. Used by Monte Carlo
    validation and the end-to-end simulator.
    @raise Invalid_argument if some position never appears in [t]. *)
val cost_on_outcome :
  ?objective:Objective.t -> t -> m:int -> positions:int array -> int

(** [monte_carlo_ep ?objective inst t rng ~trials] estimates EP by
    sampling outcomes; returns the sample summary. *)
val monte_carlo_ep :
  ?objective:Objective.t ->
  Instance.t ->
  t ->
  Prob.Rng.t ->
  trials:int ->
  Prob.Stats.summary

(** Exact-rational expected paging on an exact instance. *)
val expected_paging_exact :
  ?objective:Objective.t -> Instance.Exact.t -> t -> Numeric.Rational.t

val equal : t -> t -> bool
val to_string : t -> string
