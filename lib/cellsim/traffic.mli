(** Call-arrival workload: Poisson conference-call arrivals with a
    configurable group-size distribution. *)

type group_size =
  | Fixed of int
  | Uniform_range of int * int  (** inclusive *)
  | Geometric_capped of float * int
      (** success probability, cap; size = 1 + failures before success *)

type t

(** [create ~rate ~group_size ~users] — [rate] is calls per time unit
    across the system; participants are drawn without replacement from
    [users].
    @raise Invalid_argument naming the field on a rate that is not
    finite and positive, a geometric [p] outside (0, 1] (NaN included),
    or a group size that cannot be drawn from [users]. *)
val create : rate:float -> group_size:group_size -> users:int -> t

(** [next_arrival t rng] — exponential inter-arrival time. *)
val next_arrival : t -> Prob.Rng.t -> float

(** [draw_group t rng] — distinct participant ids for one conference. *)
val draw_group : t -> Prob.Rng.t -> int array

val rate : t -> float

(** [users t] — the participant ids [draw_group] draws from are
    [0 .. users t - 1]. *)
val users : t -> int
