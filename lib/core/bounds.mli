(** Lower bounds on the optimal expected paging.

    These make the approximation-ratio experiments meaningful at sizes
    where exact solving is impossible: LB ≤ OPT ≤ greedy, so
    greedy/LB ≥ greedy/OPT certifies the observed ratio. *)

(** [amgm_dp inst ~objective] is the convexity bound behind Lemma 4.6:
    for any strategy with prefix sizes b_r, the stop probability after
    b_r cells is at most g(W(b_r)) where W(b) is the total weight of the
    b heaviest cells and g caps the objective's success — (x/m)^m for
    find-all (AM–GM, as in the paper), min(1,x) for find-any, min(1,x/k)
    for find-k (Markov). A DP then minimizes
    c − Σ (b_{r+1} − b_r)·g(W(b_r)) over all prefix-size vectors,
    yielding a valid lower bound in O(d·c²). *)
val amgm_dp : ?objective:Objective.t -> Instance.t -> float

(** [occupied_cells inst] — a strategy for find-all must page every
    occupied cell, so EP ≥ Σ_j P[some device in cell j]. Only valid for
    [Find_all]. *)
val occupied_cells : Instance.t -> float

(** [lower_bound ?objective inst] is the best applicable combination. *)
val lower_bound : ?objective:Objective.t -> Instance.t -> float
