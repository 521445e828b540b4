(** Fixed-size domain pool with a work queue, deterministic result
    ordering, and self-healing workers.

    OCaml 5 gives the repository native parallelism (one [Domain] per
    core), and every hot path above it — fallback-chain stage racing,
    multi-instance sweeps, Monte-Carlo simulation replicas — is
    embarrassingly parallel candidate evaluation. This module is the
    single execution substrate they share: a pool of [size - 1] worker
    domains pulling closures off a mutex/condition work queue, plus the
    calling domain, which {e participates} in draining the queue instead
    of blocking (so a pool of size [n] applies [n] domains of compute,
    and nested waiting cannot idle a core).

    Determinism is the design constraint, not an afterthought:

    - {!map} writes each result into the slot of its input index, so
      output order equals input order no matter which domain finished
      first or in what order;
    - a pool of size 1 spawns {e no} domains and runs the elements in
      input order on the caller — the sequential path the differential
      test suite pins the parallel ones against;
    - tasks receive no shared mutable state from the pool; anything the
      caller shares across tasks must be its own synchronized state
      (the {!Confcall.Cancel} hookup below uses [Atomic]).

    Self-healing (DESIGN §11): a crash that escapes a task's own
    harness — an injected domain death via {!Killed}, a
    [Stack_overflow] in result publication — fails {e only that task};
    the map above it observes a failure slot instead of hanging, and
    the worker domain is respawned in place with {!active_domains}
    accounting kept exact.

    Cancellation hookup: the pool never kills or times out a running
    task — that would tear whatever state the task was mutating.
    Instead a caller racing tasks gives each one a {!Confcall.Cancel}
    token whose probe reads an [Atomic.t] flag and, when the run has
    one, its deadline; when a better task completes, the caller's
    completion callback sets the losers' flags and their solver loops
    unwind cooperatively within one poll interval. See
    [Confcall.Runner.run ?pool] for the canonical use.

    Stdlib only: [Domain], [Mutex], [Condition], [Atomic].
    No task may itself call {!map} on the same pool (the queue is one
    level deep); create a second pool, or restructure, for nested
    parallelism. *)

type t

(** A task raising [Killed e] declares its executing domain dead: the
    task is failed with [e] (an [Error e] slot in {!run_all}, the
    re-raised exception in {!map}) {e without} publishing a result, and
    the worker domain running it is torn down and respawned. Raised by
    the chaos seams ([Faultpoint]); never on a clean run. *)
exception Killed of exn

(** [create ~domains ()] builds a pool that applies [domains] domains of
    compute: [domains - 1] spawned workers plus the caller inside
    {!map}. [domains = 1] spawns nothing and makes {!map} purely
    sequential. [~caller:false] spawns all [domains] lanes as workers,
    for a pool fed by {!submit} from a domain that must stay free.
    @raise Invalid_argument when [domains < 1] or [domains > max_domains]. *)
val create : ?caller:bool -> domains:int -> unit -> t

(** Parallelism degree the pool was created with (including the
    caller). *)
val size : t -> int

(** [map pool f input] applies [f] to every element and returns the
    results in input order. Tasks run on the workers and on the calling
    domain; if any task raises, the remaining tasks still run to
    completion (or unwind via their own cancellation), and then the
    exception of the {e lowest-indexed} failing task is re-raised — so
    the surfaced error is also independent of scheduling, and of the
    pool's size: [map] is {!run_all} plus that re-raise.
    @raise Invalid_argument when called on a joined pool, or from
    inside a task of the same pool. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [run_all pool f input] is {!map} that never raises from a task:
    every element's outcome lands in its input-index slot as a
    [result], so one crashed or cancelled element cannot mask its
    siblings' answers. With [pool] of size 1 the elements run
    sequentially on the caller.
    @raise Invalid_argument when called on a joined pool, or from
    inside a task of the same pool. *)
val run_all : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array

(** A queued unit of work. [run] does the work; when it raises instead
    ({!Killed} or anything else), [fail] is called once with the
    exception, on the same domain, and a worker domain is respawned.
    [fail] also runs when a crash seam fires before [run] starts. *)
type task = { run : unit -> unit; fail : exn -> unit }

(** [submit pool task] queues [task] for the pool's spawned workers and
    returns at once. Callable from any thread, and from a task's
    [fail] (to re-queue work that never started).
    @raise Invalid_argument when the pool is joined (its workers may
    already have exited) or has no worker domains (size 1, created
    with the caller as its only lane). *)
val submit : t -> task -> unit

(** [map_list pool f xs] is {!map} over a list, preserving order. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [join pool] stops the workers and joins their domains (including
    any respawned replacements). Idempotent.
    Every pool must be joined — a dropped pool leaks OS threads — and
    the soak suite asserts {!active_domains} returns to zero. *)
val join : t -> unit

(** [with_pool ~domains f] is [f (create ~domains ())] with a guaranteed
    {!join}, whatever [f] does. *)
val with_pool : domains:int -> (t -> 'a) -> 'a

(** Number of worker domains spawned and not yet joined, across all
    pools — the leak detector for tests. *)
val active_domains : unit -> int

(** Worker domains this pool has respawned after a crash. *)
val respawns : t -> int

(** Lifetime total of respawned worker domains across every pool in
    the process — the chaos bench and soak gates read it. *)
val total_respawns : unit -> int

(** Lifetime total of tasks that crashed on a spawned worker domain,
    across every pool in the process: each one asks for a respawn. A
    crash on the caller's own help loop recovers in place and is not
    counted. The chaos bench gates respawns against it. *)
val total_worker_crashes : unit -> int

(** ["CONFCALL_DOMAINS"] — the environment variable that sets the
    [confcall] CLI's parallelism degree when no [--domains] flag is
    given. The pool never reads it: the CLI parses and validates it at
    its own boundary. *)
val env_var : string

(** Upper bound {!create} accepts for [domains] (127: the runtime's
    128 domains less domain 0) — exported so front ends can validate
    at their own boundary with a matching message. *)
val max_domains : int
