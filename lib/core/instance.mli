(** Conference Call problem instances.

    An instance has [m] mobile devices, [c] cells and a delay constraint
    [d] (1 ≤ d ≤ c). Device [i] resides in cell [j] with probability
    [p i j], independently of the other devices; each row sums to 1
    (§1.2 of the paper). The paper assumes strictly positive entries, but
    its own §4.3 lower-bound instance uses zeros, so this implementation
    only requires non-negative rows with positive total mass. *)

type t = private {
  m : int;  (** number of mobile devices, ≥ 1 *)
  c : int;  (** number of cells, ≥ 1 *)
  d : int;  (** maximum number of paging rounds, 1 ≤ d ≤ c *)
  p : float array array;  (** [p.(i).(j)]: device [i] in cell [j] *)
}

(** [create ?row_sum_tol ~d p] validates and builds an instance (rows
    are copied verbatim, not renormalized — renormalizing would disturb
    exact cell-weight ties). [row_sum_tol] (default [1e-6]) is the
    allowed |Σⱼ p(i,j) − 1| residual; estimated matrices built from
    observation counts carry float round-off in their row sums and may
    need a looser tolerance at the uncertainty boundary.
    @raise Invalid_argument on dimension errors, negative entries, or
    rows not summing to 1 within the tolerance. *)
val create : ?row_sum_tol:float -> d:int -> float array array -> t

(** [validate ?row_sum_tol ~d p] is [Ok ()] or [Error reason] without
    building; the row-sum error names the row, its residual and the
    tolerance in force. *)
val validate :
  ?row_sum_tol:float -> d:int -> float array array -> (unit, string) result

(** [with_d t d] is [t] with a different delay constraint.
    @raise Invalid_argument when [d] is not in [1, c]. *)
val with_d : t -> int -> t

(** [cell_weight t j] is the expected number of devices in cell [j]:
    Σᵢ p(i,j) — the quantity the §4 heuristic sorts by. *)
val cell_weight : t -> int -> float

(** [weight_order t] is a permutation of cells by non-increasing
    {!cell_weight}, breaking ties by cell index (ascending). *)
val weight_order : t -> int array

(** [restrict t ~cells ~devices] is the conditional sub-instance on the
    given cells (renormalizing each kept device's row) with delay [d];
    used by the adaptive solver.
    @raise Invalid_argument when a kept device has no mass on [cells] or
    the lists are empty. *)
val restrict : t -> d:int -> cells:int array -> devices:int array -> t

(** [block_diagonal ~d parts] combines per-device distributions over
    disjoint cell blocks into one joint instance: device [i] of part [k]
    has its given distribution over that part's cells and probability 0
    elsewhere. This is how a conference spanning several location areas
    becomes a single Conference Call instance (each callee is confined
    to their own last-reported area).
    @raise Invalid_argument on empty input or invalid rows. *)
val block_diagonal : d:int -> float array array list -> t

(** Generators. All draw from the supplied RNG only. *)

(** [random rng ~m ~c ~d ~gen] with independent rows from [gen]
    (e.g. [Prob.Dist.uniform_simplex rng]). *)
val random :
  Prob.Rng.t -> m:int -> c:int -> d:int -> gen:(Prob.Rng.t -> int -> float array) -> t

val random_uniform_simplex : Prob.Rng.t -> m:int -> c:int -> d:int -> t

(** Rows are independently shuffled Zipf distributions — users with
    different "home" cells. *)
val random_zipf : Prob.Rng.t -> s:float -> m:int -> c:int -> d:int -> t

(** All devices share one uniform row. *)
val all_uniform : m:int -> c:int -> d:int -> t

(** Serialization: a line-oriented text format
    ["m c d"] followed by m rows of c probabilities. *)

val to_string : t -> string

(** @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** Exact-arithmetic instances, used to verify the paper's rational
    identities (§3 reductions, the 317/49 instance of §4.3). *)
module Exact : sig
  type float_instance := t

  type t = private {
    m : int;
    c : int;
    d : int;
    p : Numeric.Rational.t array array;
  }

  (** @raise Invalid_argument on invalid rows (must be positive, sum 1). *)
  val create : d:int -> Numeric.Rational.t array array -> t

  val to_float : t -> float_instance
  val cell_weight : t -> int -> Numeric.Rational.t
  val weight_order : t -> int array
end
