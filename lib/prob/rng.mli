(** Deterministic, splittable pseudo-random number generator.

    xoshiro256** seeded through SplitMix64. Every experiment in the
    repository takes an explicit seed so that all reported numbers are
    reproducible run to run. *)

type t

(** [create ~seed] builds a generator from a 63-bit seed. *)
val create : seed:int -> t

(** [mix z] is SplitMix64's finaliser, a bijection on 64-bit words. *)
val mix : int64 -> int64

(** [splitmix64_unit key k] is output [k] of the SplitMix64 stream that
    starts at state [key], [mix (key + k·γ)], as a 53-bit uniform in
    [[0, 1)]. A pure function: draw [k] is the same whatever else is
    drawn. *)
val splitmix64_unit : int64 -> int -> float

(** [split t] derives an independent generator; [t] advances. *)
val split : t -> t

(** [copy t] duplicates the current state. *)
val copy : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)
val int : t -> int -> int

(** [int_range t lo hi] is uniform in [[lo, hi]] inclusive. *)
val int_range : t -> int -> int -> int

(** [unit_float t] is uniform in [[0, 1)] with 53 bits of precision:
    [float_of_int (bits53 t) *. 0x1p-53]. *)
val unit_float : t -> float

(** [bits53 t] is uniform in [[0, 2{^53})]: the draw [unit_float]
    scales, advancing the stream alike. An [int] comes back unboxed, so
    a caller in another module can scale it without allocating, where a
    returned [float] is boxed. *)
val bits53 : t -> int

(** [float t bound] is uniform in [[0, bound)]. *)
val float : t -> float -> float

val bool : t -> bool

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t a] picks a uniform element.
    @raise Invalid_argument on an empty array. *)
val choose : t -> 'a array -> 'a

(** [exponential t ~rate] samples Exp(rate). *)
val exponential : t -> rate:float -> float

(** [normal t] samples a standard normal (Box–Muller, one value per call). *)
val normal : t -> float

(** [gamma t ~shape] samples Gamma(shape, 1) for shape > 0
    (Marsaglia–Tsang, with the boost trick for shape < 1). *)
val gamma : t -> shape:float -> float

(** [poisson t ~mean] samples a Poisson count (inversion for small means,
    normal approximation above 500). *)
val poisson : t -> mean:float -> int
