(** Allocation-free solver hot path on flat unboxed float arrays.

    An arena pre-sizes every scratch buffer the Fig. 1 order DP and
    the local search need, and reuses them across solves: after a
    {!prepare} call the [run_*] entry points allocate zero minor-heap
    words ([Gc.minor_words] delta = 0), which the GC-regression tests
    and bench e30 gate. All float state lives in [floatarray]s and
    scalar results travel through arena slots because ocamlopt boxes
    floats that cross non-inlined function boundaries.

    This is the only production implementation of the heuristics:
    {!Solver}, {!Runner}, [Greedy.solve] and [Bandwidth.solve] run
    here. Every computation is an op-for-op mirror of the list
    reference code ([Order_dp], [Strategy], [Local_search]), so results
    are bit-identical; the tests keep the list code as the reference
    (test_flat). DESIGN §13 documents the arena layout. *)

type t

(** [create ()] is an empty arena; buffers grow on the first {!prepare}. *)
val create : unit -> t

(** [domain_arena ()] is this domain's private arena (domain-local
    storage): safe under the Runner's raced mode, serve lanes and sweep
    shards, where each domain reuses its own scratch. *)
val domain_arena : unit -> t

(** [prepare ?objective ?block a inst] binds the arena to [inst]
    (rejecting [m = 0] / [c = 0] with a named error), computes the
    non-increasing cell-weight order of §4.2.2 and its prefix success
    table — the O(m·c) part, cached while the same instance, objective,
    order and block stay bound (physical equality on the instance).

    The table has one DP position per [block] consecutive cells of the
    order (default 1: every cell). A coarser table restricts the cuts
    of {!run_greedy} to block boundaries, the metro-scale path of
    [Order_dp.solve_coarse]; its entries are bit-identical to the
    matching cell-table entries, because skipped success evaluations
    never touch the per-device compensated mass chains. Changing the
    block rebuilds the table. *)
val prepare : ?objective:Objective.t -> ?block:int -> t -> Instance.t -> unit

(** {1 Allocation-free cores}

    Each requires {!prepare}; results are read back with the accessors
    below. Zero minor-heap words per call. *)

(** The Fig. 1 DP over the prepared order; [max_group] is the §5
    bandwidth bound. Mirrors [Order_dp.solve] bit for bit. Needs a
    cell table (block 1). *)
val run_order_dp : ?cancel:Cancel.t -> ?max_group:int -> t -> unit

(** The §4.2.2 greedy heuristic: the DP over the weight order, cut at
    the prepared positions, with group sizes reported in cells.
    Requires {!prepare} (not a caller-supplied order). At block 1 it
    mirrors [Order_dp.solve] on the weight order, at a coarser block
    [Order_dp.solve_coarse]; per-solve cost is O(d·(c/block)²). *)
val run_greedy : ?cancel:Cancel.t -> t -> unit

(** The one-round page-everything strategy; EP = c exactly. *)
val run_page_all : t -> unit

(** Steepest-descent hill climb seeded from the greedy cut — an
    op-for-op mirror of [Local_search.hill_climb] including its
    apply/evaluate/revert float drift, hence bit-identical. Needs a
    cell table (block 1). *)
val run_hill_climb : ?cancel:Cancel.t -> t -> unit

(** {1 Result accessors} *)

(** Expected paging of the last [run_*]. *)
val ep : t -> float

(** Move evaluations of the last {!run_hill_climb}. *)
val iterations : t -> int

(** Copy of the currently prepared cell order. *)
val current_order : t -> int array

(** {1 Allocating conveniences}

    One-call wrappers: prepare, run, and box the result as a
    {!Strategy.solution} (strategies are rebuilt exactly as the list
    solvers build them, preserving bit-identity end to end). Only
    {!greedy} can be [exact]: with one round, or with one device on the
    cell table (the weight order is then the optimal order). *)

val greedy :
  ?objective:Objective.t -> ?block:int -> ?cancel:Cancel.t -> t ->
  Instance.t -> Strategy.solution

val order_dp :
  ?objective:Objective.t -> ?max_group:int -> ?cancel:Cancel.t ->
  t -> Instance.t -> order:int array -> Strategy.solution

val bandwidth :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t -> b:int ->
  Strategy.solution

(** The climb's move count is {!iterations} of the arena afterwards. *)
val hill_climb :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t ->
  Strategy.solution
