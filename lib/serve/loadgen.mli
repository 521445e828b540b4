(** Open-loop Poisson load generator for the serve daemon.

    Arrivals follow a Poisson process of the requested rate regardless
    of how the daemon responds — the generator never waits for a
    response before sending the next request, which is what makes
    overload visible: a closed-loop client would slow itself down and
    mask the very backpressure bench e27 measures.

    Deterministic given [seed]: the instance pool, the request→instance
    assignment and the inter-arrival gaps are all drawn from
    {!Prob.Rng}. Latencies of course are not.

    Two execution paths, selected by the options:

    - {b Legacy} (single target, [retries = 0], no hedging): solve
      frames spread round-robin over [connections] pipelined raw
      connections; one receiver thread per connection matches responses
      to send timestamps by frame id. Wire behavior is byte-identical
      to the pre-{!Client} loadgen (no [request_id] field). A
      connection that dies mid-run loses only its own in-flight
      requests (reported as [conn_lost]); later sends reroute to the
      surviving connections.
    - {b Resilient} ([retries > 0], hedging on, or multiple targets):
      every request is a {!Client.call} over all endpoints, carrying a
      [request_id] so server-side idempotency makes its retries and
      hedges exactly-once per daemon. Each request ends in a terminal
      outcome; the summary reports how it got there ([retried],
      [failed_over], [hedge_wins]). *)

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
  connections : int;
  seed : int;
  cache : bool;  (** let the daemon use its result cache *)
  timeout_s : float;  (** wait for stragglers after the last send;
                          also the per-call budget (resilient path) *)
  retries : int;  (** per-request retry budget; 0 = resilience off *)
  hedge_after_ms : float option;
      (** fire a second attempt at the next-best endpoint when no
          answer arrived within this delay; first terminal wins *)
}

val default_opts : opts
(** rate 50, 200 requests, no budget, greedy solver, 3×12×2 instances,
    pool of 32, 4 connections, seed 1, cache off (measure solves, not
    the cache), 30 s straggler timeout, no retries, no hedging. *)

type stats = {
  sent : int;
  ok : int;
  degraded : int;
  rejected : int;  (** terminal rejects (legacy path only) *)
  errors : int;
      (** error responses; on the resilient path also calls that
          exhausted their retry or time budget *)
  unanswered : int;  (** sent but no response within [timeout_s] *)
  conn_lost : int;
      (** in flight on a connection that died (legacy path); the
          resilient path retries these instead *)
  retried : int;  (** requests that retried at least once *)
  failed_over : int;  (** requests that moved endpoints *)
  hedge_wins : int;  (** requests whose hedge beat the primary *)
  duration_s : float;  (** first send to last response *)
  throughput : float;  (** terminal responses per second *)
  accepted_ms : float array;
      (** sorted latencies of ok + degraded responses *)
  rejected_ms : float array;  (** sorted latencies of sheds *)
  ladder : (string * int) list;
      (** executed-rung occupancy over accepted responses, plus
          ["cache"] for cache hits (sorted by rung name) *)
}

(** [run target opts] drives one load session and blocks until every
    request reached a terminal outcome or the straggler timeout fires.
    @raise Invalid_argument on nonsensical opts (rate, counts, timeout,
    instance shape), with a message naming the field.
    @raise Unix.Unix_error when the daemon cannot be reached (legacy
    path; the resilient path records unreachable endpoints as request
    outcomes instead). *)
val run : target -> opts -> stats

(** [run_multi targets opts] — as {!run} over several replicas; always
    the resilient path when more than one target is given. *)
val run_multi : target list -> opts -> stats

(** [percentile xs p] — nearest-rank percentile ([p] in [0, 100]) of a
    {e sorted} array; [nan] when empty. *)
val percentile : float array -> float -> float
