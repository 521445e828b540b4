(** Arbitrary-precision signed integers.

    Sign-magnitude representation over base-2^30 limbs. Designed for the
    exact-arithmetic needs of the conference-call reproduction (verifying
    rational identities such as 317/49 and the NP-hardness reduction
    formulas), not for cryptographic-scale performance: multiplication is
    schoolbook and division is binary long division. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] is the big integer equal to [n]. *)
val of_int : int -> t

(** [to_int x] is [Some n] when [x] fits in a native [int]. *)
val to_int : t -> int option

(** [to_int_exn x] is [x] as a native int.
    @raise Failure when [x] does not fit. *)
val to_int_exn : t -> int

(** [of_string s] parses an optionally-signed decimal numeral.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** [to_string x] is the decimal representation of [x]. *)
val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated toward zero
    and [r] carrying the sign of [a] (C-style semantics).
    @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor. *)
val gcd : t -> t -> t

(** [pow x k] is [x] raised to the non-negative power [k].
    @raise Invalid_argument when [k < 0]. *)
val pow : t -> int -> t

val min : t -> t -> t
val max : t -> t -> t

(** [to_float x] is the nearest-ish float (computed limb-wise; exact for
    values below 2^53). *)
val to_float : t -> float

(** [bit_length x] is the position of the highest set bit of [|x|]
    (0 for zero). *)
val bit_length : t -> int

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
