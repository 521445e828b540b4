(** Canned simulation scenarios.

    Ready-made {!Sim.config}s for recurring evaluation settings, so the
    CLI, benches and downstream users share consistent setups. Every
    scenario is deterministic given its seed. *)

(** [suburb ?seed ()] — the baseline: 8×8 field, 4×4 location areas,
    64 users on an unbiased random walk, 3-party instantaneous calls. *)
val suburb : ?seed:int -> unit -> Sim.config

(** [commuter_day ?seed ()] — a stylized working day on a 12×8 field:
    the first third of the time users drift east (morning commute), the
    middle third they walk randomly (work hours), the last third the
    drift reverses (evening). The system's calibrated model (used by the
    diffusion estimator) remains the unbiased walk, so regime changes
    stress the estimators realistically. *)
val commuter_day : ?seed:int -> unit -> Sim.config

(** [drifting_commuter ?seed ()] — model misspecification end-to-end on
    a 12×8 field: users sit still ("parked") while the system freezes
    an estimated paging matrix at t = 120 ([Sim.Snapshot] estimator);
    at t = 180 everyone commutes east for 25 ticks, then parks again.
    A {!Drift} monitor rides on call arrivals and refreshes the
    snapshot when evidence contradicts it — the relocation burst
    triggers hedged re-estimation and re-solving, and later sightings
    let the refreshed rows sharpen until realized paging cost matches
    the re-solved nominal EP again; selective planning runs through
    the budgeted {!Confcall.Runner} (5 ms/call). Setting the
    estimator's [drift] to [None] turns the same workload into the
    stale-matrix baseline, which stays miscalibrated and expensive
    after the commute. *)
val drifting_commuter : ?seed:int -> unit -> Sim.config

(** [residence_lab ?seed ~residence ()] — the residence-time
    laboratory: an 8×8 field whose ground truth moves by the
    semi-Markov walk under [residence] (mean dwell 6 ticks, stay
    matched so the exponential law reproduces the plain chain), time-8
    reporting so profile ages genuinely spread over [0, 8), and a
    scheme lineup of blanket, age-blind selective, age-evolved
    selective and the staleness-inflated robust re-rank. *)
val residence_lab :
  ?seed:int -> residence:Mobility.residence -> unit -> Sim.config

(** {!residence_lab} under an exponential dwell law of mean 6. *)
val residence_exp : ?seed:int -> unit -> Sim.config

(** The heavy-tailed Pareto dwell law of E31: tail index 1.6 (infinite
    variance) and scale [0x1.a35f1f8160d7p+1] (≈ 3.276), the first float
    scale at which the truncated mean {!Mobility.residence_mean} reaches
    6 ticks, that of {!residence_exp}'s law. Its true mean is ≈ 6.0007. *)
val pareto_dwell : Mobility.residence

(** {!residence_lab} under {!pareto_dwell}. *)
val residence_pareto : ?seed:int -> unit -> Sim.config

(** Every scenario, by its lower-case name. *)
val all : (string * (?seed:int -> unit -> Sim.config)) list

(** [find name] — the builder of the scenario called [name], in any
    case, or an error naming every valid scenario. The CLI's
    [--scenario] and the daemon's [simulate] op both look names up
    here. *)
val find : string -> (?seed:int -> unit -> Sim.config, string) result
