(** Matrix misspecification: certified EP bounds and worst-case EP.

    The whole stack assumes the location matrix [p(i,j)] is exact, but a
    deployed pager only ever has an estimate. This module models the
    estimation error as a perturbation ball around the nominal instance
    and certifies expected paging over the ball:

    - each entry may move by at most [eps] (an L∞ ball, per row or
      uniform), entries stay in [0, 1];
    - each row may shift at most [tv] total-variation mass
      ((1/2)·Σⱼ|qᵢⱼ − pᵢⱼ| ≤ tv), rows stay normalized.

    {2 Why the bounds are sound — and the worst case exact}

    Lemma 2.1 writes EP = c − Σ_{r≥2} |S_r|·F_{r−1} where F_r is the
    objective's success probability on the per-device prefix masses
    m(i,r) = Σ_{j ∈ S₁∪…∪S_r} q(i,j). Every objective we support
    ([Find_all], [Find_any], [Find_at_least]) is non-decreasing in each
    prefix mass, so EP is non-increasing in each m(i,r), and devices are
    independent, so the adversary optimizes each row separately.

    For one row, EP depends on q only through its prefix masses, and
    ∂EP/∂q(i,j) depends only on the group index of cell j and is
    monotone in it. Hence a single canonical perturbation — move mass
    out of the earliest groups (at most [min eps p(i,j)] per cell) into
    the latest groups (at most [min eps (1−p(i,j))] per cell), spending
    at most [tv] — simultaneously achieves, for {e every} round r, the
    maximum prefix-mass reduction

    {[ δ⁻(i,r) = min (Σ_{j ∈ prefix r} min eps p(i,j))
                     (Σ_{j ∉ prefix r} min eps (1−p(i,j)))
                     tv ]}

    (any transfer that lowers prefix r pairs a source inside it with a
    destination outside it, so the three terms are separately binding;
    the greedy order makes them all tight at once). The mirror
    construction maximizes every mass. Consequently:

    - {!robust_ep} / {!optimistic_ep} are {e exact} extremes over the
      ball (up to float evaluation error) for every instance size — no
      vertex enumeration needed;
    - {!ep_bounds} evaluates Lemma 2.1 over the per-round mass interval
      [\[m(i,r) − δ⁻(i,r), m(i,r) + δ⁺(i,r)\]] with directed-rounding
      interval arithmetic ({!Numeric.Interval}), so the returned bounds
      also dominate float round-off in the evaluation itself.

    Validated against exact {!Numeric.Rational} arithmetic in
    [test/test_uncertainty.ml]. *)

type t = private {
  eps : float;  (** uniform per-entry L∞ radius, used when [row_eps] is [None] *)
  row_eps : float array option;  (** per-device L∞ radius *)
  tv : float;  (** per-row total-variation budget; [infinity] = unconstrained *)
}

(** [uniform ?tv eps] — same ε for every row. [tv] defaults to
    [infinity] (the L∞ ball alone constrains the adversary).
    @raise Invalid_argument unless [0 ≤ eps ≤ 1] and [tv ≥ 0]. *)
val uniform : ?tv:float -> float -> t

(** [per_row ?tv eps] — device [i] has radius [eps.(i)] (e.g. from
    {!Prob.Estimate.dkw_eps} on per-device sample counts).
    @raise Invalid_argument on an empty array or out-of-range radius. *)
val per_row : ?tv:float -> float array -> t

(** [eps_for t i] is the radius for device [i]'s row. *)
val eps_for : t -> int -> float

(** [inflate t ~by] grows device [i]'s L∞ radius by [by.(i)] ≥ 0,
    capping at the trivial radius 1 and preserving the TV budget — the
    staleness hook: radii widen with profile age (e.g. by
    {!Prob.Estimate.staleness_eps} churn) and can never shrink, so
    worst-case EP over the inflated ball dominates the original.
    A uniform [t] becomes per-row; [by] must then have one entry per
    device row.
    @raise Invalid_argument on an empty or negative [by], or a length
    mismatch with an existing [row_eps]. *)
val inflate : t -> by:float array -> t

(** [validate t ~m] checks [row_eps] (when present) has length [m]. *)
val validate : t -> m:int -> (unit, string) result

type bounds = { lo : float; hi : float }

(** [ep_bounds ?objective t inst strat] encloses the expected paging of
    [strat] against {e every} matrix in the ball around [inst]
    (including [inst] itself, so the nominal EP always lies inside).
    @raise Invalid_argument when the strategy does not partition the
    instance's cells, is longer than [inst.d], or [t] fails
    {!validate}. *)
val ep_bounds : ?objective:Objective.t -> t -> Instance.t -> Strategy.t -> bounds

(** [robust_ep ?objective t inst strat] is the worst-case expected
    paging over the ball — [expected_paging] of the canonical
    adversarial matrix, whose every row simultaneously minimizes all of
    [strat]'s prefix masses over the ball. Monotone non-decreasing in
    [eps] and [tv]; always within {!ep_bounds} up to float evaluation
    error. *)
val robust_ep : ?objective:Objective.t -> t -> Instance.t -> Strategy.t -> float

(** [optimistic_ep ?objective t inst strat] is the best-case EP over
    the ball ([expected_paging] of the mirror construction, every
    prefix mass maximized). *)
val optimistic_ep :
  ?objective:Objective.t -> t -> Instance.t -> Strategy.t -> float

val to_string : t -> string
