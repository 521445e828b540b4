(** Mobility models over a cell graph.

    A model is a Markov transition matrix over cells: each simulation
    tick a user jumps according to their current cell's row. The
    stationary distribution doubles as a ground-truth location profile
    for experiments that want the "ideal knowledge" regime.

    The plain matrix implies geometric cell residence times (constant
    hazard). The {!residence} / {!aging} layer below generalises this
    to explicit per-cell dwell laws — exponential or heavy-tailed —
    turning the chain into a semi-Markov process whose transient
    evolution quantifies how fast a location profile goes stale. *)

type t = private { n : int; rows : float array array }

(** [create rows] validates a row-stochastic matrix.
    @raise Invalid_argument naming the offending row index and its
    actual sum when some row does not sum to 1, has the wrong width,
    or contains a negative entry. *)
val create : float array array -> t

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

(** [step t rng ~cell] — sample the next cell. *)
val step : t -> Prob.Rng.t -> cell:int -> int

(** [stationary ?iters ?tol t] — stationary distribution by power
    iteration from uniform; [tol] is total-variation convergence. *)
val stationary : ?iters:int -> ?tol:float -> t -> float array

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
    [alpha > 1] it is the truncated float sum [Σ_{a<N} S(a)], [N] the
    10{^7} cap or one past the first age with [S(a) < 1e-12], whichever
    comes first. The omitted tail is not negligible for small [alpha]:
    at [alpha = 1.6], mean 6 it is 7.0e-4, so that law's true mean is
    about 6.0007. The result is the float of adding the terms one by one
    in age order, but most terms come from a series on the running sum's
    ulp grid, stepped by forward differences, rather than from pow, and
    far out, where terms fall by a fraction of an ulp per age, whole runs
    of them are counted by where they cross the grid's rounding
    boundaries: a full 10{^7}-term sum costs ~0.02 s on a 2-vCPU x86-64
    host (~0.5 s for one pow per term), with no allocation per term. *)
val residence_mean : residence -> float

(** [pareto_with_mean ~alpha ~mean] — the Pareto law with tail index
    [alpha] whose truncated mean {!residence_mean} equals [mean] (scale
    found by bisection), for variance comparisons at a matched mean.
    The match is deliberately to the truncated mean: matching the true
    mean would move every residence-pareto trajectory and E31. Most
    bisection steps are decided by a certified closed form of the
    truncated sum, the rest by exact sums that bracket the threshold at
    that form's root, which the sum's monotonicity in the scale extends
    to nearby steps, so the scale is the same float a bisection on exact
    sums returns. The ~12 exact sums share a block table and recompute
    only blocks whose rounding could have moved, one sum's worth of
    terms for ~0.36 sum's worth of pows and series values: the match at
    [alpha] 1.6, mean 6 costs ~0.02 s on a 2-vCPU x86-64 host.
    @raise Invalid_argument when [alpha <= 1], [mean < 1], when no scale
    up to 1e9 reaches [mean], or when the truncated mean already exceeds
    [mean] at scale 1e-6 (the last two name both). *)
val pareto_with_mean : alpha:float -> mean:float -> residence

(**/**)

(** Internals of {!pareto_with_mean}, exposed for the margin audit in
    the test suite; not a stable API. [value] approximates the truncated
    Pareto sum of {!residence_mean} by its first terms plus an
    Euler–Maclaurin tail, [margin] bounds [|value - residence_mean|]
    rigorously (zero when [value] is the exact sum), and [terms] is the
    sum's term count [N]. *)
type pareto_screen = { value : float; margin : float; terms : int }

val pareto_mean_screen : alpha:float -> scale:float -> pareto_screen

(** The block table the exact sums of one {!pareto_with_mean} share,
    for one [alpha]: what each 1024-term block added at the scale it was
    last summed at, and how far its terms are from rounding otherwise. *)
type pareto_blocks

val pareto_blocks : alpha:float -> pareto_blocks

(** [pareto_sum t ~scale] — the truncated sum of
    {!residence_mean}, bit for bit, keeping every block of [t] that
    provably adds the same whole ulps at [scale], and recording the
    blocks it sums again. *)
val pareto_sum : pareto_blocks -> scale:float -> float

(** [pareto_gap ~alpha s'] — a relative scale gap past which the exact
    sum cannot fall: scales [s < s'] with [(s' - s)/s' >= pareto_gap
    ~alpha s'] have [pareto_sum] at [s] at most that at [s']. *)
val pareto_gap : alpha:float -> float -> float

(** [pareto_match t ~mean] — {!pareto_with_mean} on the table [t]. *)
val pareto_match : pareto_blocks -> mean:float -> residence

(** Terms computed (the head and every block summed again) over all
    sums on [t]. *)
val pareto_recomputed : pareto_blocks -> int

(** Work over all sums on [t]: every pow (the head and each anchor) plus
    every series value computed, term by term or to find a crossing. *)
val pareto_evaluations : pareto_blocks -> int

(** The scales summed exactly on [t], in order. *)
val pareto_summed : pareto_blocks -> float list

(**/**)

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
    base matrix. *)

type aging

(** [aging ?dwell_cap base laws] — one law per cell.
    @raise Invalid_argument on a law-count mismatch, bad law
    parameters, or [dwell_cap < 1] (default 32). *)
val aging : ?dwell_cap:int -> t -> residence array -> aging

(** [aging_uniform ?dwell_cap base law] — the same law in every cell. *)
val aging_uniform : ?dwell_cap:int -> t -> residence -> aging

val aging_law : aging -> cell:int -> residence

(** [hazard_at a ~cell ~dwell] — leave probability this tick. *)
val hazard_at : aging -> cell:int -> dwell:int -> float

(** [semi_step a rng ~cell ~dwell] — one ground-truth tick of the
    semi-Markov walk; returns the new cell and dwell age. Consumes an
    identical number of RNG draws regardless of the law, so runs under
    different residence laws share motion randomness shape. *)
val semi_step : aging -> Prob.Rng.t -> cell:int -> dwell:int -> int * int

(** [age_dist a dist ~steps] — transient evolution of a location belief
    whose mass was observed (dwell age 0) [steps] ticks ago; the
    age-dependent analogue of {!diffuse}. [steps = 0] is a copy.
    @raise Invalid_argument when [steps < 0] or on a size mismatch. *)
val age_dist : aging -> float array -> steps:int -> float array
