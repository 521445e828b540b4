(** Paging-as-a-service: the [confcall serve] daemon.

    A long-lived JSONL request/response service (see {!Wire.Proto}) over a
    TCP or Unix-domain stream socket, built only on the stdlib ([Unix],
    [Thread], [Domain] via {!Exec.Pool}). Connection threads do the
    I/O and the cheap work (parsing, cache lookups, admission);
    solve/simulate execution runs on a fixed {!Exec.Pool} of worker
    domains, and admission puts each job straight on that pool's queue,
    bounded at [capacity] jobs not yet started. Robustness is the design
    center:

    - {b Admission control + backpressure}: the queue holds at most
      [capacity] requests. A request arriving at a full queue is shed
      with [rejected:overload] {e immediately} from the connection
      thread, carrying a [retry_after_ms] hint sized to the queue's
      estimated drain time — overload degrades quality, then
      availability, never latency-to-verdict. Sustained shedding trips
      a {b circuit breaker}: for a short cooldown, admission rejects
      without touching the queue lock at all, and the hint is the
      breaker's remaining cooldown.
    - {b Client hardening} (DESIGN §11): every connection has a
      dedicated writer systhread draining a bounded output buffer
      under a per-chunk write deadline, so a stalled or slow-reading
      client is disconnected instead of pinning a worker or growing
      memory; each admitted job is an [Exec.Pool] task, so an injected
      or real lane death ([serve.lane.crash], fired before the job
      starts) costs a respawned domain and re-queues the job, never an
      admitted request's response.
    - {b Graceful degradation}: between 50% and 75% queue occupancy the
      fallback chain of an admitted request is filtered to its anytime
      + always-fast stages ([heuristic] rung); above 75% to the
      always-fast stages only ([fast] rung). Responses carry the rung
      so clients and the load generator can see the ladder work.
    - {b Deadline propagation}: a request's [budget_ms] is armed at
      admission, so queueing time counts against it; what remains at
      execution start becomes the {!Confcall.Runner} budget, which
      turns it into the existing {!Confcall.Cancel} tokens. A request
      whose budget was consumed in the queue still returns the anytime
      best-so-far ([status:"degraded"]) rather than timing out
      silently.
    - {b Result cache}: clean (undegraded) solve results are cached
      under {!Confcall.Signature.canonical_key}-based keys, optionally
      journal-backed so a restarted daemon serves hits for previously
      solved instances ({!Cache}).
    - {b Lifecycle}: SIGTERM/SIGINT (or a [drain] frame) stop the
      accept loop, reject new submissions with [rejected:draining],
      finish every admitted request, flush the cache journal and exit.
      A malformed or oversized frame gets an [error] response and the
      connection lives on; a client disconnect never takes the daemon
      down.

    Metrics: the daemon enables the default {!Obs} registry and exposes
    it over the same port (a [metrics] frame returns the Prometheus
    text exposition). [serve_*] counters/gauges cover requests by
    status, sheds, ladder occupancy, queue depth and cache traffic. *)

type listen = Client.endpoint =
  | Tcp of int  (** loopback; port 0 picks one *)
  | Unix_path of string

type config = {
  listen : listen;
  domains : int;  (** solve lanes in [1, 256], none on domain 0 *)
  capacity : int;  (** bounded request queue, >= 1 *)
  max_connections : int;
  cache_path : string option;  (** journal the result cache here *)
  cache_fsync : bool;
  max_frame_bytes : int;
      (** oversized frames are answered and dropped (default
          {!Client.Transport.max_frame_bytes}) *)
  drain_grace_ms : float;  (** drain must finish within this window *)
  quiet : bool;
  cache_max : int;  (** LRU cap on the result cache, >= 1 *)
  write_timeout_ms : float;
      (** deadline on writing each drained chunk of answers; a client
          that stalls longer is disconnected *)
  max_buffer_bytes : int;
      (** per-connection output buffer bound, >= 4096; overflow kills
          the connection (backpressure, not unbounded memory) *)
  request_log : string option;
      (** append-only {!Confcall.Journal} of executed request_ids
          ([request_id TAB status]): the per-daemon exactly-once audit
          trail — a retried or hedged request_id appears at most once *)
  dedup_max : int;
      (** completed idempotency entries kept for replay (LRU), >= 1 *)
}

(** Defaults: domains 1, capacity 64, 256 connections, no cache file,
    4 MiB frames, 10 s grace, not quiet, 65536 cache entries, 5 s write
    timeout, 1 MiB output buffer, no request log, 4096 dedup entries.

    {b Idempotency}: a solve request carrying a [request_id] (see
    {!Wire.Proto.solve_req}) executes at most once per daemon: a
    duplicate frame arriving mid-execution waits for — and shares — the
    single execution's terminal response; one arriving after completion
    is answered from a bounded LRU of recent terminals. Either way the
    duplicate's response carries ["dedup":"hit"]. Rejected submissions
    are {e not} memoized: the client's retry is welcome to try again. *)
val default_config : listen -> config

(** The shedding ladder, from healthy to overloaded. *)
type ladder = Full | Heuristic | Fast

(** [ladder_of_depth ~capacity depth] — the rung admission assigns at
    the given queue depth: [Full] below 50% occupancy, [Heuristic]
    below 75%, [Fast] at or above. Pure; exported for tests. *)
val ladder_of_depth : capacity:int -> int -> ladder

(** [apply_ladder ladder chain] filters a fallback chain to the stages
    the rung allows ([Heuristic]: anytime + always-fast; [Fast]:
    always-fast only; never empty — falls back to the rung's default
    chain) and reports whether it changed anything. Pure; exported for
    tests. *)
val apply_ladder :
  ladder -> Confcall.Solver.spec list -> Confcall.Solver.spec list * bool

type handle

(** [start cfg] binds, spawns the accept thread and the worker pool,
    and returns. SIGPIPE is set to ignore (socket writes must fail
    with [EPIPE], not kill the process); no other signal handlers are
    installed — that is {!run}'s job.
    @raise Invalid_argument on invalid config fields.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when the runtime cannot spawn [domains] more domains
    (OCaml 5.1 runs at most 128 at once); the domains already spawned
    are joined and the socket is closed. *)
val start : config -> handle

(** The actually-bound TCP port ([None] for Unix sockets) — for tests
    using port 0. *)
val bound_port : handle -> int option

(** Begin draining: stop accepting, reject new submissions, let the
    workers finish the queue. Idempotent, callable from any thread
    (also what a [drain] frame triggers). *)
val request_drain : handle -> unit

(** [stop h] = {!request_drain}, then block until the daemon has
    drained — every admitted job answered — and the worker pool is
    joined; returns [false] when the config's drain grace elapsed with
    work still in flight (workers are
    then left to finish on their own and the cache journal is not
    closed). *)
val stop : handle -> bool

(** [run cfg] — the CLI entry: {!start}, install SIGTERM/SIGINT
    handlers that trigger a drain, block until drained, flush, and
    return [true] on a clean drain within grace. *)
val run : config -> bool
