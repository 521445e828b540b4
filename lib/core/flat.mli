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
    (test_flat). DESIGN §13 documents the arena layout, the
    prefix-product invariants and the delta-EP correctness argument. *)

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

(** [prepare_order a inst ~order] is {!prepare} for a caller-supplied
    cell order (the §5 "any predefined sequence" remark). Raises the
    same [Invalid_argument] errors as [Order_dp.solve] on a bad order. *)
val prepare_order :
  ?objective:Objective.t -> t -> Instance.t -> order:int array -> unit

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
    {!prepare} (not {!prepare_order}). *)
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

(** The delta-screened climb: candidates are scored via the incremental
    EP delta in O(affected rounds · m) each instead of a full
    re-evaluation; the accepted move is committed and resynced. Same
    move set and gain threshold as {!run_hill_climb}; scores agree only
    to rounding, so the climbed strategy may differ in ulp-tie cases —
    use {!run_hill_climb} where bit-identity with the list reference
    matters. *)
val run_hill_climb_fast : ?cancel:Cancel.t -> t -> unit

(** {1 Result accessors} *)

(** Expected paging of the last [run_*]. *)
val ep : t -> float

(** Number of groups of the last [run_*]. *)
val rounds : t -> int

(** Size of group [r] (cells, also on the coarse path). *)
val size_at : t -> int -> int

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

val hill_climb_fast :
  ?objective:Objective.t -> ?cancel:Cancel.t -> t -> Instance.t ->
  Local_search.result

(** {1 Incremental EP internals}

    Exposed for the delta-vs-full property tests: load an arbitrary
    strategy, predict or apply moves through the incremental delta, and
    compare {!Ls.ep} (maintained) against {!Ls.ep_full} (full mirror
    re-evaluation). *)
module Ls : sig
  (** Load a strategy as LS state and build the prefix/success
      invariants. Validates like [Local_search.state_of_strategy]. *)
  val load : ?objective:Objective.t -> t -> Instance.t -> Strategy.t -> unit

  (** Rebuild the invariants from the masses (full resync). *)
  val sync : t -> unit

  (** The incrementally maintained EP. *)
  val ep : t -> float

  (** Full re-evaluation (mirror of [Local_search.ep]); does not touch
      the maintained value. *)
  val ep_full : t -> float

  val rounds : t -> int
  val round_of : t -> int -> int
  val count : t -> int -> int

  (** Predicted EP after the move, via the delta; state unchanged. *)
  val predict_relocate : t -> cell:int -> target:int -> float

  val predict_swap : t -> p:int -> q:int -> float

  (** Commit the move, updating masses, prefixes, per-round successes
      and the maintained EP incrementally (no resync). *)
  val apply_relocate : t -> cell:int -> target:int -> unit

  val apply_swap : t -> p:int -> q:int -> unit
end
