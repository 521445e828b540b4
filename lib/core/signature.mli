(** The Signature problem (§5): find any [k] of the [m] devices —
    "finding k managers out of m to sign a document". [k = m] is the
    Conference Call problem and [k = 1] the Yellow Pages problem. *)

(** [solve inst ~k] — the cell-weight heuristic with the find-k
    objective (the prefix success probability is a Poisson–binomial
    tail).
    @raise Invalid_argument unless 1 ≤ k ≤ m. *)
val solve : Instance.t -> k:int -> Strategy.solution

(** [exhaustive inst ~k] — ground truth for small c. *)
val exhaustive : Instance.t -> k:int -> Strategy.solution

(** [sweep inst] — heuristic expected paging for every k = 1..m;
    the interpolation curve of experiment E13. *)
val sweep : Instance.t -> float array

(** [canonical_key ~objective inst] — a stable hex digest identifying
    the {e problem} an instance poses, for result caches: two instances
    that differ only by device (row) order, or by float noise below a
    fixed [1e-9] grid, share a key. The key covers [m], [c], [d], the
    objective, the grid and the row-sorted quantized matrix. Instances
    within one grid step of each other intentionally collide — a cache
    keyed on this may return the strategy of a sub-quantum neighbour.
    Journals persist keys, so the key of an instance never changes. *)
val canonical_key : objective:Objective.t -> Instance.t -> string
