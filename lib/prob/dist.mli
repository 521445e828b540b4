(** Probability vectors over cells and common workload distributions.

    All generators return strictly positive vectors summing to 1, matching
    the Conference Call problem's requirement that every p(i,j) > 0. *)

(** [normalize v] scales a non-negative vector to sum to 1.
    @raise Invalid_argument when the sum is not positive. *)
val normalize : float array -> float array

(** [is_distribution ?eps v] checks positivity and unit sum. *)
val is_distribution : ?eps:float -> float array -> bool

(** [uniform c] is the uniform distribution over [c] cells. *)
val uniform : int -> float array

(** [zipf ~s c] has mass ∝ 1/rank^s; [s = 0] is uniform, larger [s] more
    skewed. Models a user concentrated near a few home cells. *)
val zipf : s:float -> int -> float array

(** [geometric ~ratio c] has mass ∝ ratio^rank, 0 < ratio ≤ 1. *)
val geometric : ratio:float -> int -> float array

(** [point_mass ~eps c j] puts mass 1 − (c−1)·eps on cell [j] and [eps]
    elsewhere — "the system almost knows the location". *)
val point_mass : eps:float -> int -> int -> float array

(** [dirichlet rng ~alpha c] samples from a symmetric Dirichlet; small
    [alpha] gives spiky vectors, large [alpha] near-uniform ones. *)
val dirichlet : Rng.t -> alpha:float -> int -> float array

(** [uniform_simplex rng c] samples uniformly from the open simplex
    (Dirichlet with alpha = 1). *)
val uniform_simplex : Rng.t -> int -> float array

(** [shuffled rng v] permutes the entries of [v] randomly (fresh array). *)
val shuffled : Rng.t -> float array -> float array

(** [perturb rng ~eps v] multiplies each entry by a factor in
    [[1−eps, 1+eps]] and renormalizes; used for tie-breaking studies. *)
val perturb : Rng.t -> eps:float -> float array -> float array

(** [clamp_positive v] lifts entries below 1e-12 to 1e-12 and
    renormalizes, enforcing the model's positivity assumption. *)
val clamp_positive : float array -> float array

(** [sample rng v] draws a category index by linear inversion. *)
val sample : Rng.t -> float array -> int

(** [entropy v] is the Shannon entropy in bits. *)
val entropy : float array -> float

(** [total_variation a b] is (1/2)·Σ|aᵢ−bᵢ|.
    @raise Invalid_argument on length mismatch. *)
val total_variation : float array -> float array -> float
