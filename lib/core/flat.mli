(** Allocation-free solver hot path on flat unboxed float arrays.

    An arena pre-sizes every scratch buffer the Fig. 1 order DP, the
    coarse metro-scale DP and the local search need, and reuses them
    across solves: after a [prepare_*] call the [run_*] entry points
    allocate zero minor-heap words ([Gc.minor_words] delta = 0), which
    the GC-regression tests and bench e30 gate. All float state lives in
    [floatarray]s and scalar results travel through arena slots because
    ocamlopt boxes floats that cross non-inlined function boundaries.

    This is the only production implementation of the heuristics:
    {!Solver}, {!Runner}, [Greedy.solve] and [Bandwidth.solve] run
    here. Every computation is an op-for-op mirror of the list
    reference code ([Order_dp], [Strategy], [Local_search]), so results
    are bit-identical; the tests keep the list code as the reference
    (test_flat). DESIGN §13 documents the arena layout. *)

type t

(** [create ()] is an empty arena; buffers grow on first [prepare_*]. *)
val create : unit -> t

(** [domain_arena ()] is this domain's private arena (domain-local
    storage): safe under the Runner's raced mode, serve lanes and sweep
    shards, where each domain reuses its own scratch. *)
val domain_arena : unit -> t

(** [prepare ?objective a inst] binds the arena to [inst] (rejecting
    [m = 0] / [c = 0] with a named error), computes the non-increasing
    cell-weight order of §4.2.2 and the full prefix success table — the
    O(m·c) part, cached while the same instance, objective and order
    stay bound (physical equality on the instance). *)
val prepare : ?objective:Objective.t -> t -> Instance.t -> unit

(** [prepare_coarse ?block a inst] prepares the weight order plus the
    block-boundary success table for {!run_coarse} (default block 16).
    The boundary entries are bit-identical to the corresponding full
    table entries: skipped success evaluations never touch the
    per-device compensated mass chains. *)
val prepare_coarse :
  ?objective:Objective.t -> ?block:int -> t -> Instance.t -> unit

(** {1 Allocation-free cores}

    Each requires the matching [prepare_*]; results are read back with
    the accessors below. Zero minor-heap words per call. *)

(** The Fig. 1 DP over the prepared order; [max_group] is the §5
    bandwidth bound. Mirrors [Order_dp.solve] bit for bit. *)
val run_order_dp : ?cancel:Cancel.t -> ?max_group:int -> t -> unit

(** The §4.2.2 greedy heuristic: the DP over the weight order. Requires
    {!prepare} (not a caller-supplied order). *)
val run_greedy : ?cancel:Cancel.t -> t -> unit

(** The coarse DP over block boundaries, mirror of
    [Order_dp.solve_coarse]; requires {!prepare_coarse}. Per-solve cost
    is O(d·(c/block)²) — the metro-scale path. *)
val run_coarse : ?cancel:Cancel.t -> t -> unit

(** The one-round page-everything strategy; EP = c exactly. *)
val run_page_all : t -> unit

(** Steepest-descent hill climb seeded from the greedy cut — an
    op-for-op mirror of [Local_search.hill_climb] including its
    apply/evaluate/revert float drift, hence bit-identical. *)
val run_hill_climb : ?cancel:Cancel.t -> t -> unit

(** {1 Result accessors} *)

(** Expected paging of the last [run_*]. *)
val ep : t -> float

(** Number of groups of the last [run_*]. *)
val rounds : t -> int

(** Move evaluations of the last hill climb. *)
val iterations : t -> int

(** Copy of the currently prepared cell order. *)
val current_order : t -> int array

(** {1 Allocating conveniences}

    One-call wrappers: prepare, run, and box the result in the
    [Order_dp]/[Local_search] record types (strategies are rebuilt
    exactly as the list solvers build them, preserving bit-identity end
    to end). *)

val greedy :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t ->
  Order_dp.result

val order_dp :
  ?objective:Objective.t -> ?max_group:int -> ?cancel:Cancel.t ->
  t -> Instance.t -> order:int array -> Order_dp.result

val bandwidth :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t -> b:int ->
  Order_dp.result

val coarse :
  ?objective:Objective.t -> ?block:int -> ?cancel:Cancel.t ->
  t -> Instance.t -> Order_dp.result

val hill_climb :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t ->
  Local_search.result
