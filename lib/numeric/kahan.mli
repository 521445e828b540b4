(** Compensated (Neumaier) floating-point summation.

    The EP formula of Lemma 2.1 and the prefix-mass accumulations of the
    §4 DP add many small probabilities; plain left-to-right addition loses
    up to O(n·ε) relative accuracy on adversarial inputs (tiny masses next
    to masses near 1, denormals around 1e-308). Neumaier's variant of
    Kahan summation keeps a running compensation term and is exact to one
    ulp of the true sum for all practical inputs, at ~2x the cost of a
    bare add — negligible against the surrounding DP work. *)

type t

(** A fresh accumulator holding 0. *)
val create : unit -> t

(** [add acc x] folds [x] into the running sum. *)
val add : t -> float -> unit

(** [total acc] is the compensated value of everything added so far. *)
val total : t -> float

(** [reset acc] returns the accumulator to 0 without reallocating. *)
val reset : t -> unit

(** Functional single-step form for fold-style call sites:
    [step (s, c) x] is the updated (sum, compensation) pair, and
    [value (s, c)] its total. [zero] is the empty pair. *)
val zero : float * float

val step : float * float -> float -> float * float
val value : float * float -> float
