(** Exact rational arithmetic over {!Bigint}.

    Values are kept normalized: the denominator is strictly positive and
    coprime with the numerator; zero is [0/1]. Used to evaluate expected
    paging exactly (e.g., the 317/49 vs 320/49 lower-bound instance of
    §4.3) and to verify the NP-hardness reduction identities of §3. *)

type t

val zero : t
val one : t

(** [make num den] is the normalized fraction [num/den].
    @raise Division_by_zero when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** [of_ints num den] is [make (of_int num) (of_int den)]. *)
val of_ints : int -> int -> t

val of_int : int -> t
val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val inv : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero when dividing by zero. *)
val div : t -> t -> t

val min : t -> t -> t
val max : t -> t -> t

(** [pow x k] for any integer [k]; [pow zero k] with [k < 0] raises
    [Division_by_zero]. *)
val pow : t -> int -> t

(** [to_float x] is the float nearest to [x], ties to even: correctly
    rounded, subnormals included (infinite past the largest float). *)
val to_float : t -> float

(** [to_string x] is ["num/den"], or just ["num"] when [den = 1]. *)
val to_string : t -> string

(** [of_string s] parses ["a"], ["a/b"], or a decimal like ["0.25"].
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** Exact sum and product of a list. *)
val sum : t list -> t

val product : t list -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
