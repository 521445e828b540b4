(** The dynamic program of Lemma 4.7 / Fig. 1, generalized.

    Given a fixed cell ordering, this DP finds the strategy minimizing
    expected paging among all strategies that page cells in that order —
    in O(d·c²) time after an O(m·c) pass computing prefix success
    probabilities. The paper instantiates it with the non-increasing
    cell-weight order to obtain the e/(e−1)-approximation (§4.2.2); with
    m = 1 it is the optimal single-device algorithm of [11,16,17]; the §5
    remark that it works "for any predefined sequence" and for the
    bandwidth-limited model is exposed through [order] and [max_group]. *)

(** The one solution record; the name stays for callers that spell it
    [Order_dp.result]. The group sizes g₁ … g_d are
    [Strategy.sizes r.strategy]; [expected_paging] is E(d, c). Results
    over a fixed order are never marked [exact]: the order may be the
    wrong one. *)
type result = Strategy.solution = {
  strategy : Strategy.t;
  expected_paging : float;
  exact : bool;
}

(** [solve ?objective ?max_group inst ~order] cuts [order] (a
    permutation of the instance's cells) into at most [inst.d] groups.

    [max_group] bounds every group size (the §5 bandwidth model); the
    problem is infeasible when [c > max_group · d].

    [cancel] is polled once per DP cell (the quadratic part): the DP is
    polynomial, but at metropolitan c it still outlives tight budgets.

    @raise Invalid_argument when [order] is not a permutation of the
    cells or the bandwidth constraint is infeasible.
    @raise Cancel.Cancelled when the token fires mid-DP. *)
val solve :
  ?objective:Objective.t ->
  ?max_group:int ->
  ?cancel:Cancel.t ->
  Instance.t ->
  order:int array ->
  result

(** [solve_coarse ?objective ?block inst ~order] restricts cut points to
    multiples of [block] cells (default 16), shrinking the DP from
    O(d·c²) to O(d·(c/block)²). The reported expectation is exact for
    the returned strategy (Lemma 2.1 only reads prefix success at cut
    points), but the strategy is only optimal within the coarse family —
    a practical solver for location areas with tens of thousands of
    cells. *)
val solve_coarse :
  ?objective:Objective.t ->
  ?block:int ->
  Instance.t ->
  order:int array ->
  result

(** [solve_with_prefix_success ~c ~d ?max_group ?cell_cost
    ~prefix_success ~order] is the raw DP: [prefix_success j] must be
    the probability that the search objective is met within the first
    [j] cells of [order] (non-decreasing, [prefix_success 0 = 0]);
    [cell_cost pos] is the cost of the cell at order position [pos]
    (default 1: the result is then expected cells paged, otherwise
    expected paging cost). Exposed for custom objectives and for the
    tests that cross-check the recurrence. *)
val solve_with_prefix_success :
  c:int ->
  d:int ->
  ?max_group:int ->
  ?cell_cost:(int -> float) ->
  ?cancel:Cancel.t ->
  prefix_success:(int -> float) ->
  order:int array ->
  unit ->
  result

(** [check_order ~c order] accepts [order] when it lists each of the
    cells [0 .. c-1] exactly once.
    @raise Invalid_argument naming the fault otherwise. *)
val check_order : c:int -> int array -> unit

(** [prefix_success_table ?objective inst ~order] is the F[·] table of
    Fig. 1 lines 07–14: entry [j] is the success probability of the
    length-[j] prefix. Length c+1. *)
val prefix_success_table :
  ?objective:Objective.t -> Instance.t -> order:int array -> float array
