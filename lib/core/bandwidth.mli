(** Bandwidth-limited paging (§5): at most [b] cells per round.

    The paper observes its machinery carries over: Lemma 4.6 still gives
    existence of an approximate strategy in the weight-order family, and
    the Lemma 4.7 DP only needs its group-size range restricted. *)

(** [feasible ~c ~d ~b] — a strategy exists iff c ≤ b·d. *)
val feasible : c:int -> d:int -> b:int -> bool

(** [solve ?objective ?cancel inst ~b] — the heuristic under the cap,
    on this domain's {!Flat.domain_arena}; [cancel] is threaded into the
    underlying DP (see {!Cancel}).
    @raise Invalid_argument when infeasible. *)
val solve :
  ?objective:Objective.t ->
  ?cancel:Cancel.t ->
  Instance.t ->
  b:int ->
  Strategy.solution

(** [exhaustive inst ~b] — ground truth for small c. *)
val exhaustive :
  ?objective:Objective.t -> Instance.t -> b:int -> Strategy.solution

(** [sweep inst ~bs] — heuristic expected paging per cap, [nan] where
    infeasible. *)
val sweep : Instance.t -> bs:int array -> float array
