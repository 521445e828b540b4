(** Distributional analysis of paging strategies.

    The paper optimizes the {e expectation} of cells paged; this module
    exposes the full distribution, which is discrete and closed-form:
    the search stops after round r with probability F_r − F_{r−1}
    (Lemma 2.1's telescoping), paying the cumulative group size b_r.
    Useful for tail-aware comparisons — two strategies with equal EP can
    have very different worst-percentile behaviour — and for the
    delay/paging Pareto view. *)

type distribution = {
  support : float array;  (** cumulative cells paged per stop round *)
  probabilities : float array;  (** P[stop at round r]; sums to 1 *)
  mean : float;
  variance : float;
  stddev : float;
}

(** [cost_distribution ?objective inst strategy] — exact distribution of
    the number of cells paged.
    @raise Invalid_argument when the strategy is invalid for the
    instance. *)
val cost_distribution :
  ?objective:Objective.t -> Instance.t -> Strategy.t -> distribution

(** [rounds_distribution ?objective inst strategy] — exact distribution
    of the stopping round (1-based). *)
val rounds_distribution :
  ?objective:Objective.t -> Instance.t -> Strategy.t -> distribution

(** [quantile dist q] — smallest support point with cumulative
    probability ≥ q, q ∈ [0, 1]. *)
val quantile : distribution -> float -> float

(** [delay_paging_frontier ?objective inst ~max_d] — the (E[rounds], EP)
    curve traced by the greedy heuristic as the delay budget grows from
    1 to [max_d]: the tradeoff a system designer actually navigates. *)
val delay_paging_frontier :
  ?objective:Objective.t -> Instance.t -> max_d:int -> (float * float) array
