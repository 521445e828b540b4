(** Exact solvers, used as ground truth for the approximation-ratio
    experiments. The problem is NP-hard for every fixed m ≥ 2, d ≥ 2
    (Theorem 3.8), so these are exponential in general: one prefix-chain
    DP (DESIGN §15) behind {!exhaustive}, {!exhaustive_exact} and
    {!Class_solver}, and a pruned search specialized to d = 2.

    Every search accepts a {!Cancel.t} token polled in its hot loop, so
    a deadline-driven caller (the {!Runner}) can abandon it mid-search;
    a cancelled search raises {!Cancel.Cancelled}. Every float search
    returns a {!Strategy.solution} marked [exact]. *)

(** [exhaustive ?objective ?max_group ?classes ?cancel ?guard inst]
    returns the first minimizer, in round-labelling order and bit for
    bit, over strategies of at most [inst.d] rounds of at most
    [max_group] cells (default [c]). O(3ᶜ · d) prefix steps; a lattice
    above 2²⁰ prefixes × rounds is searched without a memo. [classes]
    (default singletons) groups cells every device sees alike; a prefix
    is then a per-class count, members paged in the given order.
    [guard] (default [true]) rejects [c > 16] and [dᶜ > 8·10⁶]; pass
    [~guard:false] only with a real [cancel] token or a guard of your own.
    @raise Invalid_argument when guarded and too large, or when no
    strategy fits [max_group].
    @raise Cancel.Cancelled when the token fires mid-search. *)
val exhaustive :
  ?objective:Objective.t ->
  ?max_group:int ->
  ?classes:int array array ->
  ?cancel:Cancel.t ->
  ?guard:bool ->
  Instance.t ->
  Strategy.solution

(** [exhaustive_exact ?objective ?cancel inst] is the exact optimum of
    an exact instance, under {!exhaustive}'s guard: the rational
    minimizer of {!Strategy.expected_paging_exact}, ties going to the
    smallest label vector, with its expected paging. It runs the float
    search on [Instance.Exact.to_float inst] with a tolerance that
    covers rounding each entry to the nearest float (DESIGN §15) and
    scores each chain that tolerance keeps in rationals. *)
val exhaustive_exact :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.Exact.t ->
  Strategy.t * Numeric.Rational.t

(** [branch_and_bound_d2 ?objective ?cancel ?guard inst] computes an
    optimal two-round strategy by depth-first search over first-round
    subsets with an admissible pruning bound (success is monotone in the
    per-device prefix masses for every objective). [guard] (default
    [true]) rejects [c > 26] before the search starts, where the
    exponential search stops taking seconds (DESIGN §15). Pass
    [~guard:false] only with a real [cancel] token.
    @raise Invalid_argument when [inst.d <> 2], or when guarded and
    [c > 26].
    @raise Cancel.Cancelled when the token fires mid-search. *)
val branch_and_bound_d2 :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  ?guard:bool ->
  Instance.t ->
  Strategy.solution

(** [best ?objective ?cancel ?guard inst] picks the cheapest applicable
    exact method: {!exhaustive} within its guard, else
    {!branch_and_bound_d2} when d = 2 and within its guard. [None] when
    no guarded method fits. With [~guard:false] (pair it with a deadline
    token) no instance is too large: d = 2 goes to branch and bound,
    anything else to the unguarded {!exhaustive}, and the search runs
    until the token fires. *)
val best :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  ?guard:bool ->
  Instance.t ->
  Strategy.solution option
