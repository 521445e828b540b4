(** Optimal paging for a single device (m = 1).

    This case is solvable in polynomial time [Goodman–Krishnan–Sugla;
    Madhavapeddy et al.; Rose–Yates]: sort the cells by non-increasing
    probability and cut the sequence with the DP of Lemma 4.7. The paper
    uses it as the easy baseline that the Conference Call problem
    generalizes (§1.3). *)

(** [solve inst] for an instance with [inst.m = 1].
    @raise Invalid_argument when [inst.m <> 1]. *)
val solve : Instance.t -> Order_dp.result

(** [uniform_ep ~c ~d] is the optimal expected paging for a uniform
    single device in closed form: with near-equal group sizes
    c = q·d + r, EP = c − Σ_{i=1}^{d−1} size_{i+1}·(b_i/c).
    For d = 2 and even c this is the paper's 3c/4 example (§1.1). *)
val uniform_ep : c:int -> d:int -> float
