(** The paper's e/(e−1)-approximation heuristic (§4, Fig. 1).

    Cells are sequenced by non-increasing expected number of devices
    Σᵢ p(i,j); dynamic programming (Lemma 4.7) then finds the optimal cut
    of this sequence into at most d groups. Theorem 4.8: the result pages
    at most e/(e−1) ≈ 1.582 times the optimal expectation, in
    O(c(m + dc)) time and O(m + dc) space. The ratio cannot be better
    than 320/317 (§4.3). For m = 2 = d the bound improves to 4/3 (§4.1). *)

(** [solve ?objective ?cancel inst] runs the heuristic on this domain's
    {!Flat.domain_arena}; [Order_dp.solve] over {!order} is the list
    reference it is tested against. Note the approximation guarantee of
    Theorem 4.8 is proved for [Find_all]; other objectives reuse the
    same machinery heuristically (§5). The result is [exact] when
    m = 1 or d = 1, where the cut is provably optimal. *)
val solve :
  ?objective:Objective.t -> ?cancel:Cancel.t -> Instance.t ->
  Strategy.solution

(** [order inst] is the heuristic's cell sequence (exposed for tests and
    for the adaptive solver). *)
val order : Instance.t -> int array

(** [approximation_factor] = e/(e−1). *)
val approximation_factor : float

(** [approximation_factor_m2d2] = 4/3 (Lemma 4.3). *)
val approximation_factor_m2d2 : float

(** [ratio_lower_bound] = 320/317 (§4.3). *)
val ratio_lower_bound : float
