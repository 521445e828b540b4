(** Fault-injection seam for the execution runtime.

    The simulator has injected {e model} faults (page loss, imperfect
    detection, cell outages) since PR 1; this module injects {e runtime}
    faults — a worker domain dying mid-task, a journal write tearing, a
    stalled client socket — so the self-healing machinery in
    [Exec.Pool], [Journal] and [lib/serve] can be exercised
    deterministically in tests, soaks and benches instead of waiting
    for production to produce the failure.

    Design constraints, in order:

    + {b Off means off.} Every probe starts with a single [Atomic.t
      bool] load and a branch; a disabled seam performs no allocation,
      no hashing, no RNG draw. The differential suite pins that the
      solver and serve outputs with the seam compiled in but disabled
      are byte-identical to the clean build.
    + {b Domain-safe.} Arming happens once, before the workload
      (configuration tables become read-only); each armed point counts
      its own probes in an atomic, and a draw shares no other state, so
      any domain or systhread may probe any point concurrently.
    + {b Deterministic per seed, point and probe index.} The k-th probe
      of point P fires iff output k of a SplitMix64 stream keyed by the
      seed ([CONFCALL_CHAOS_SEED] or [?seed]) and P's name is below P's
      probability, whatever the other points do. Which request or
      domain makes P's k-th probe can still vary between runs.
    + {b No third-party library.} [Atomic], [Hashtbl], [Unix.sleepf]
      and [Prob.Rng].

    {2 Points and spec grammar}

    Each named point has one failure semantic, applied by the site that
    probes it (see {!catalogue}): [hit] points raise {!Injected},
    [delay] points sleep, [short] points truncate a write. A spec is a
    comma-separated list of [point=prob] or [point=prob@param] entries;
    [prob] in [0, 1], [param] a point-specific number (milliseconds for
    delay points, a fraction of the write for short points). The
    wildcard entry [*=prob] arms every catalogued point at once with
    its default parameter. Examples:

    {v
    CONFCALL_CHAOS='pool.task.crash=0.05'
    CONFCALL_CHAOS='journal.append.short=0.1@0.3,journal.fsync=0.2'
    confcall serve --chaos '*=0.02' --chaos-seed 7
    v} *)

(** Raised at a [hit]-style point when its probability fires; the
    payload is the point name. Sites either let it escape (simulated
    crash) or absorb it (simulated transient error). *)
exception Injected of string

val env_var : string
(** ["CONFCALL_CHAOS"] — spec read by {!arm_from_env}. *)

val catalogue : (string * string) list
(** Every valid point name with a one-line description of what firing
    means at its site. Specs naming an uncatalogued point are
    rejected. *)

val parse : string -> ((string * float * float) list, string) result
(** [parse spec] — the normalized (point, probability, param) list,
    wildcards expanded, without arming anything. Exposed for tests and
    for front ends that want to validate [--chaos] at the CLI
    boundary. *)

val configure : ?seed:int -> string -> (unit, string) result
(** [configure ?seed spec] parses and arms. A second call replaces the
    previous configuration. [seed] defaults to 1. An empty spec
    ([""]) is valid and arms nothing (the seam stays disabled). *)

val configure_exn : ?seed:int -> string -> unit
(** @raise Invalid_argument on a malformed spec. *)

val arm_from_env : unit -> unit
(** Arm from [CONFCALL_CHAOS]/[CONFCALL_CHAOS_SEED] when set; no-op —
    and no spec validation — when the variable is absent or empty. The
    seed defaults to 1 when its variable is unset; surrounding blanks
    are trimmed.
    @raise Invalid_argument on a malformed spec or a seed that is not
    an integer (fail loud at startup, not silently clean or on
    another seed). *)

val disable : unit -> unit
(** Back to the clean path: every probe is one atomic load + branch
    again. The fired counters survive until the next {!configure}. *)

val on : unit -> bool
(** True when a configuration with at least one armed point is
    active. *)

(** {2 Probes} — each is a no-op (one load, one branch) when off. *)

val hit : string -> unit
(** [hit p] raises [Injected p] when point [p] is armed and its draw
    fires; returns otherwise.
    @raise Invalid_argument when [p] is not in {!catalogue} {e and}
    the seam is on — mistyped sites must not silently never fire. *)

val delay : string -> unit
(** [delay p] sleeps the point's param (milliseconds) when it fires. *)

val short : string -> float option
(** [short p] is [Some frac] (the fraction of the write to keep,
    in [0, 1]) when the point fires — the site truncates its write and
    raises — and [None] otherwise. *)

(** {2 Accounting} — for tests, soaks and the chaos bench. *)

val fired : string -> int
(** Times this point has fired since the last {!configure}. *)

val total_fired : unit -> int

val fired_all : unit -> (string * int) list
(** Nonzero points, sorted by name. *)
