(** The Quadratic Assignment Problem, and the paper's §5.1 connection.

    QAP (Koopmans–Beckermann): given two c×c matrices A and B, find a
    permutation π maximizing Σ_{x,y} A(x,y)·B(π(x),π(y)).

    §5.1 notes that a QAP solver solves the Conference Call problem for
    two devices (polynomially for constant d). The construction this
    module implements: fix group sizes s₁…s_d and let slot u belong to
    round r(u). For m = 2,

    EP = c − Σ_r |S_{r+1}|·P₁(L_r)·P₂(L_r)
       = c − Σ_{x,y} p₁(x)·p₂(y)·(c − b_{max(r(π(x)), r(π(y)))})

    where b_r is the cumulative size of the first r groups — so with
    A(x,y) = p₁(x)·p₂(y) and B(u,v) = c − b_{max(r(u), r(v))}, maximizing
    the QAP objective minimizes expected paging. Sweeping all O(c^{d−1})
    size vectors covers the whole strategy space. *)

type t = private { size : int; a : float array array; b : float array array }

(** [create a b] validates two square same-size matrices. *)
val create : float array array -> float array array -> t

(** [objective t perm] = Σ_{x,y} A(x,y)·B(perm(x), perm(y)).
    @raise Invalid_argument when [perm] is not a permutation. *)
val objective : t -> int array -> float

(** [local_search t ~start] — steepest-ascent 2-swaps until a local
    maximum; returns (permutation, objective, evaluations). *)
val local_search : t -> start:int array -> int array * float * int

(** [anneal t rng ~steps ~t0 ~cooling] — simulated annealing over swaps,
    finishing with local search. *)
val anneal :
  t -> Prob.Rng.t -> steps:int -> t0:float -> cooling:float -> int array * float

(** [exhaustive t] — exact maximum over all permutations (size ≤ 9). *)
val exhaustive : t -> int array * float

(** {1 Conference Call (m = 2) through QAP} *)

(** [of_conference inst ~sizes] builds the QAP encoding above.
    @raise Invalid_argument unless [inst.m = 2] and sizes are positive
    summing to c. *)
val of_conference : Instance.t -> sizes:int array -> t

(** [ep_of_objective inst value] = c − value: converts a QAP objective
    value back to expected paging. *)
val ep_of_objective : Instance.t -> float -> float

(** [solve_conference_m2 ?rng inst] — full §5.1 pipeline: for every size
    vector (d ≤ 3 keeps this polynomial and fast), build the QAP, run
    annealing + local search, return the best strategy found and its
    expected paging. Heuristic (local search is not exact), but
    unconstrained by any cell order.
    @raise Invalid_argument unless [inst.m = 2]. *)
val solve_conference_m2 : ?rng:Prob.Rng.t -> Instance.t -> Strategy.t * float
