(** Directed-rounding interval arithmetic.

    Sound enclosures for the uncertainty layer: every operation returns
    an interval guaranteed to contain the exact real result of applying
    the operation to any reals drawn from the operand intervals. OCaml
    cannot portably switch the FPU rounding mode, so outward rounding is
    done by widening each computed endpoint one ulp with [Float.pred] /
    [Float.succ] — IEEE-754 round-to-nearest puts the exact result
    strictly within one ulp of the computed endpoint, so the widened
    interval is a correct (if occasionally one-ulp pessimistic)
    enclosure. Used to bound Lemma 2.1 expected paging under matrix
    misspecification ({!Confcall.Uncertainty}); validated against exact
    {!Rational} arithmetic in the test suite. *)

type t = private { lo : float; hi : float }

(** [make lo hi] — endpoints are taken as exact (not widened).
    @raise Invalid_argument when [lo > hi] or an endpoint is NaN. *)
val make : float -> float -> t

(** [exact x] is the degenerate interval [\[x, x\]].
    @raise Invalid_argument on NaN. *)
val exact : float -> t

val of_int : int -> t
val zero : t
val one : t

val lo : t -> float
val hi : t -> float
val width : t -> float

(** [contains t x] — is [x] inside the closed interval? *)
val contains : t -> float -> bool

val neg : t -> t

(** Outward-rounded arithmetic. *)

val add : t -> t -> t

val sub : t -> t -> t
val mul : t -> t -> t

(** [scale k t] is [mul (exact k) t]. *)
val scale : float -> t -> t

(** [clamp ~lo ~hi t] intersects [t] with [\[lo, hi\]] — sound whenever
    the true value is known a priori to lie in [\[lo, hi\]] (e.g. a
    probability in [0, 1]).
    @raise Invalid_argument when the intersection is empty. *)
val clamp : lo:float -> hi:float -> t -> t

(** [hull a b] is the smallest interval containing both. *)
val hull : t -> t -> t

(** Outward-rounded sum of an array of intervals. *)
val sum : t array -> t

(** Outward-rounded product; operands must be non-negative intervals
    (all our probability work is), which keeps endpoint selection
    monotone: lo = prod of los, hi = prod of his.
    @raise Invalid_argument when some operand has [lo < 0]. *)
val product_nonneg : t array -> t

val to_string : t -> string
