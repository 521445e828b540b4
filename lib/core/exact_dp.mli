(** The Lemma 4.7 dynamic program in exact rational arithmetic.

    Float ties can silently change which cut the DP picks (the §4.3
    instance is decided by ties); this variant removes the doubt for
    reduction instances and other rational inputs. O(d·c²) rational
    operations — intended for small c. *)

(** [solve ?objective ?cancel inst ~order] — optimal cut of [order] into
    at most [inst.d] groups, exactly, with its expected paging.
    Objectives as in {!Order_dp}. Rational arithmetic on adversarial
    inputs can blow up in digit count, so the (l, k) loop polls
    [cancel].
    @raise Invalid_argument when [order] is not a permutation.
    @raise Cancel.Cancelled when the token fires mid-DP. *)
val solve :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.Exact.t ->
  order:int array ->
  Strategy.t * Numeric.Rational.t

(** [greedy ?objective ?cancel inst] — the §4 heuristic end-to-end in
    exact arithmetic: weight order (exact comparisons, ties by index) +
    exact DP. *)
val greedy :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.Exact.t ->
  Strategy.t * Numeric.Rational.t
