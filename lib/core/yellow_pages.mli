(** The Yellow Pages problem (§5): find {e any one} of the m devices.

    Dual to the Conference Call problem. The paper reports (as work in
    progress) an m-approximation based on a heuristic {e different} from
    the cell-weight one, and that the cell-weight heuristic of §4 does
    {e not} offer a constant factor for this objective. *)

(** [natural_heuristic inst] — the §4 heuristic run with the find-any
    objective: weight order + DP. No constant-factor guarantee. *)
val natural_heuristic : Instance.t -> Strategy.solution

(** [best_single_device inst] — for each device [i], order cells by
    p(i,·) and cut with the find-any DP; return the best of the m
    results. This is the m-approximation candidate: the chosen strategy
    is within the single-device optimum for its device, and OPT cannot
    beat every single-device optimum by more than a factor m. *)
val best_single_device : Instance.t -> Strategy.solution

(** [solve inst] = better of {!natural_heuristic} and
    {!best_single_device}. *)
val solve : Instance.t -> Strategy.solution

(** [exhaustive inst] — ground truth via {!Optimal.exhaustive} with the
    find-any objective (small c only). *)
val exhaustive : Instance.t -> Strategy.solution

(** [adversarial_instance ~blocks ~d] builds the family showing the
    natural heuristic is not constant-factor for find-any: one "private"
    cell holds device 1 with high probability (high find-any success,
    moderate weight), while [blocks] "shared" cells each hold several of
    the other devices with slightly larger total weight but much smaller
    find-any success. The weight order pages all shared cells first. *)
val adversarial_instance : blocks:int -> d:int -> Instance.t
