(** Open-loop Poisson load generator for the serve daemon.

    Arrivals follow a Poisson process of the requested rate regardless
    of how the daemon responds — the generator never waits for a
    response before sending the next request, which is what makes
    overload visible: a closed-loop client would slow itself down and
    mask the very backpressure bench e27 measures.

    Deterministic given [seed]: the instance pool, the request→instance
    assignment and the inter-arrival gaps are all drawn from
    {!Prob.Rng}. Latencies of course are not.

    One path: every request is a {!Client.call} over one {!Client.t}
    holding all targets, carrying a [request_id] unique to its run, so
    server-side idempotency makes retries and hedges exactly-once per
    daemon. The client keeps one pipelined connection per endpoint.
    Each request ends in one outcome ([ok], [degraded], [rejected],
    [errors] or [unanswered]); the summary also reports how it got
    there ([retried], [failed_over], [hedge_wins]). With [retries = 0]
    and no hedge, each request is sent exactly once. *)

type target = Client.endpoint =
  | Tcp of int  (** loopback *)
  | Unix_path of string

type opts = {
  rate : float;  (** offered load, requests/second *)
  requests : int;
  budget_ms : float option;  (** attached to every solve frame *)
  solver : string option;
  chain : string option;
  m : int;
  c : int;
  d : int;
  instances : int;  (** distinct instances in the generated pool *)
  seed : int;
  cache : bool;  (** let the daemon use its result cache *)
  timeout_s : float;
      (** per-call budget: a request with no terminal answer within
          [timeout_s] of its arrival counts as [unanswered] *)
  retries : int;  (** per-request retry budget; 0 = send once *)
  hedge_after_ms : float option;
      (** fire a second attempt at the next-best endpoint when no
          answer arrived within this delay; first terminal wins *)
}

val default_opts : opts
(** rate 50, 200 requests, no budget, greedy solver, 3×12×2 instances,
    pool of 32, seed 1, cache off (measure solves, not the cache),
    30 s per-call timeout, no retries, no hedging. *)

type stats = {
  sent : int;
  ok : int;
  degraded : int;
  rejected : int;
      (** sheds: the final attempt was answered [rejected] *)
  errors : int;
      (** error frames, and calls that ran out of retries on lost or
          refused connections *)
  unanswered : int;  (** calls that exhausted [timeout_s] unanswered *)
  retried : int;  (** requests that retried at least once *)
  failed_over : int;  (** requests that moved endpoints *)
  hedge_wins : int;  (** requests whose hedge beat the primary *)
  duration_s : float;  (** first send to last answered outcome *)
  throughput : float;  (** answered requests per second *)
  accepted_ms : float array;
      (** sorted latencies of ok + degraded responses *)
  rejected_ms : float array;  (** sorted end-to-end latencies of sheds *)
  ladder : (string * int) list;
      (** executed-rung occupancy over accepted responses, plus
          ["cache"] for cache hits (sorted by rung name) *)
}

(** [run_multi targets opts] drives one load session over the replicas
    [targets] and blocks until every request has its outcome.
    @raise Invalid_argument on nonsensical opts (rate, counts, timeout,
    instance shape), with a message naming the field, or no targets.
    @raise Unix.Unix_error before any request is sent when no target
    accepts a connection; once one does, an endpoint that becomes
    unreachable is a request outcome instead. *)
val run_multi : target list -> opts -> stats

(** [run target opts] is [run_multi [target] opts]. *)
val run : target -> opts -> stats

(** [percentile xs p] — nearest-rank percentile ([p] in [0, 100]) of a
    {e sorted} array; [nan] when empty. *)
val percentile : float array -> float -> float
