(** Mobility models over a cell graph.

    A model is a Markov transition matrix over cells: each simulation
    tick a user jumps according to their current cell's row. The
    stationary distribution doubles as a ground-truth location profile
    for experiments that want the "ideal knowledge" regime.

    The plain matrix implies geometric cell residence times (constant
    hazard). The {!residence} / {!aging} layer below generalises this
    to explicit per-cell dwell laws — exponential or heavy-tailed —
    turning the chain into a semi-Markov process whose transient
    evolution quantifies how fast a location profile goes stale.

    A model is stored in compressed sparse rows: per row, the columns
    of its non-zero entries in ascending order and their probabilities
    in a [floatarray]. A hex walk keeps at most 7 entries a row, so
    building, stepping and diffusing cost O(non-zeros), not O(n{^2}).
    Every result is bit-identical to the dense n×n matrix it replaced:
    sums run over the same entries in the same order, and a skipped
    exact zero only ever added +0.0 to a non-negative sum. A model is
    immutable once built and may be shared across domains. *)

type t

(** [create rows] validates a dense row-stochastic matrix and keeps
    its non-zero entries; exact zeros are dropped.
    @raise Invalid_argument naming the offending row index and its
    actual sum when some row does not sum to 1, has the wrong width,
    or contains a negative entry; a NaN entry is named by row and
    column. *)
val create : float array array -> t

(** [cells t] — the number of cells (rows) of the model. *)
val cells : t -> int

(** [row t i] — row [i] as a fresh dense array of [cells t] entries,
    zeros included.
    @raise Invalid_argument when [i] is not a cell. *)
val row : t -> int -> float array

(** [random_walk hex ~stay] — with probability [stay] remain in place,
    otherwise move to a uniform neighbor. A cell with no neighbors
    (single-cell field) is absorbing: all mass stays. *)
val random_walk : Hex.t -> stay:float -> t

(** [drift_walk hex ~stay ~east_bias] — a random walk with a preference
    for eastward neighbors; models commuter flow. [east_bias] ≥ 1
    multiplies the weight of neighbors with larger column. Isolated
    cells are absorbing, as in {!random_walk}. *)
val drift_walk : Hex.t -> stay:float -> east_bias:float -> t

(** [teleport base ~jump ~target] — with probability [jump] redraw the
    cell from [target] (waypoint behaviour), otherwise follow [base]. *)
val teleport : t -> jump:float -> target:float array -> t

(** [step t rng ~cell] — sample the next cell: one uniform draw,
    inverted on the row's cumulative sums exactly as
    {!Prob.Dist.sample} does on the dense row, including its
    fall-through to cell [n - 1] when the draw passes every partial sum. *)
val step : t -> Prob.Rng.t -> cell:int -> int

(** [stationary t] — stationary distribution by power iteration from
    uniform, to 1e-12 in total variation (at most 10 000 steps). *)
val stationary : t -> float array

(** [diffuse t dist ~steps] — push a distribution [steps] ticks forward:
    the system's belief about a user last seen [steps] ago.
    @raise Invalid_argument when [steps < 0]. *)
val diffuse : t -> float array -> steps:int -> float array

(** {1 Residence-time distributions}

    Discrete dwell laws: the number of whole ticks a user spends in a
    cell before jumping. Every law puts its mass on {1, 2, ...} — a
    visit lasts at least one tick. *)

type residence =
  | Exponential of { mean : float }
      (** Geometric dwell with hazard [1/mean] — the memoryless law the
          plain Markov matrix implies. [mean >= 1]. *)
  | Pareto of { alpha : float; scale : float }
      (** Discrete Lomax: survival [(1 + a/scale)^-alpha]. Heavy tail;
          infinite variance for [alpha <= 2], infinite mean for
          [alpha <= 1]. *)
  | Zipf of { s : float; cutoff : int }
      (** [P(T = k) ∝ k^-s] for [k = 1..cutoff]. *)

(** [validate_residence r] checks parameter ranges. *)
val validate_residence : residence -> (unit, string) result

(** [residence_survival r a] — [P(dwell > a ticks)]; [S(0) = 1].
    @raise Invalid_argument on bad parameters or [a < 0]. *)
val residence_survival : residence -> int -> float

(** [residence_hazard r a] — [P(leave at dwell age a | survived to a)],
    clamped to [0, 1]; returns 1 past the support. *)
val residence_hazard : residence -> int -> float

(** [residence_mean r] — expected dwell in ticks; [infinity] when the
    law's mean diverges (Pareto with [alpha <= 1]). For Pareto with
    [alpha > 1] it is the truncated float sum [Σ_{a<N} S(a)], added one
    term at a time in age order, [N] the 10{^7} cap or one past the
    first age with [S(a) < 1e-12], whichever comes first. The omitted
    tail is not negligible for small [alpha]: at
    {!Scenario.pareto_dwell} (alpha 1.6, truncated mean 6) it is
    7.0e-4, so that law's true mean is about 6.0007. A sum that runs to
    the cap makes one pow per term, ~0.5 s at alpha 1.6 on a 2-vCPU
    x86-64 host; nothing in the simulator or the benchmarks calls it. *)
val residence_mean : residence -> float

(** [residence_of_string s] parses ["exp:<mean>"],
    ["pareto:<alpha>:<scale>"] or ["zipf:<s>:<cutoff>"]. *)
val residence_of_string : string -> (residence, string) result

val residence_to_string : residence -> string

(** {1 Aging kernel}

    A mobility matrix plus per-cell residence laws define a semi-Markov
    walk: leave the current cell with the dwell-age-dependent hazard,
    and on leaving pick the destination from the matrix row conditioned
    on moving. Beliefs evolve on the (cell × dwell-age) product chain,
    with dwell age capped at [dwell_cap] (hazards freeze at the cap, a
    geometric tail approximation). With uniform exponential laws of
    mean [1/(1 - stay)] the per-tick dynamics coincide exactly with the
    base matrix.

    The kernel keeps its hazards in one flat [cells × dwell_cap] table
    and each cell's conditional jump row in sparse rows. It also owns
    the two [cells × dwell_cap] buffers that {!age_dist} ping-pongs
    between, so [age_dist] allocates only its result. Those buffers
    make an [aging] value single-domain: never call [age_dist] on one
    value from two domains at once. Each {!Sim.run} builds its own
    kernel and {!Replicate} runs separate [Sim.run]s, so no kernel is
    shared; the base model it reads stays immutable. *)

type aging

(** [aging ?dwell_cap base laws] — one law per cell.
    @raise Invalid_argument on a law-count mismatch, bad law
    parameters, or [dwell_cap < 1] (default 32). *)
val aging : ?dwell_cap:int -> t -> residence array -> aging

(** [aging_uniform ?dwell_cap base law] — the same law in every cell;
    its hazard row is computed once. Equal to [aging] with [law]
    repeated per cell. *)
val aging_uniform : ?dwell_cap:int -> t -> residence -> aging

(** [semi_step a rng ~cell ~dwell] — one ground-truth tick of the
    semi-Markov walk; returns the new cell and dwell age. Consumes an
    identical number of RNG draws regardless of the law, so runs under
    different residence laws share motion randomness shape. *)
val semi_step : aging -> Prob.Rng.t -> cell:int -> dwell:int -> int * int

(** [age_dist a dist ~steps] — transient evolution of a location belief
    whose mass was observed (dwell age 0) [steps] ticks ago; the
    age-dependent analogue of {!diffuse}. [steps = 0] is a copy. Works
    in [a]'s own buffers and allocates only the result; see above for
    why one kernel must not serve two domains at once.
    @raise Invalid_argument when [steps < 0] or on a size mismatch. *)
val age_dist : aging -> float array -> steps:int -> float array
