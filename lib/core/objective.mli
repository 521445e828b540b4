(** Search objectives: when does paging stop?

    The paper's Conference Call problem stops when {e all} devices are
    found. §5 names two generalizations: the Yellow Pages problem (stop at
    the first device) and the Signature problem (stop after any [k] of the
    [m] devices). All solvers in this library are parameterized by the
    objective, since the DP of Lemma 4.7 only needs the probability that
    the stopping condition holds within a prefix of cells. *)

type t =
  | Find_all  (** Conference Call: every device must be found *)
  | Find_any  (** Yellow Pages: any single device suffices *)
  | Find_at_least of int  (** Signature: any [k] devices, 1 ≤ k ≤ m *)

(** [validate t ~m] checks the objective against the device count. *)
val validate : t -> m:int -> (unit, string) result

(** [success t probs] is the probability that the stopping condition holds
    when device [i] independently lies inside the searched prefix with
    probability [probs.(i)]. [Find_all] is the product, [Find_any] is
    1 − Π(1 − pᵢ), and [Find_at_least k] is the Poisson–binomial upper
    tail computed by dynamic programming. *)
val success : t -> float array -> float

(** [success_into t ~src ~off ~n ~dp ~dst ~di] is {!success} on the flat
    hot path: the [n] prefix masses are read from [src] starting at
    [off] and the result is written into [dst.(di)]. Bit-identical to
    [success] (same fold order, same compensated tail) and
    allocation-free — results travel through a [floatarray] slot
    because ocamlopt boxes float returns across function boundaries.
    [dp] is scratch of length at least [n + 1], used only by
    [Find_at_least]. *)
val success_into :
  t ->
  src:floatarray ->
  off:int ->
  n:int ->
  dp:floatarray ->
  dst:floatarray ->
  di:int ->
  unit

(** Exact-rational version of {!success}. *)
val success_exact : t -> Numeric.Rational.t array -> Numeric.Rational.t

(** [found_enough t ~m ~found] decides the stopping condition on a
    concrete outcome with [found] devices already located. *)
val found_enough : t -> m:int -> found:int -> bool

val to_string : t -> string

(** [of_string s] parses an objective, case-insensitively and ignoring
    surrounding blanks: [all] or [find-all], [any] or [find-any], and
    [<k>] or [find-<k>] with [k >= 1]. {!to_string} output round-trips.
    The error is ["objective must be all|any|<k>"]. *)
val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit
