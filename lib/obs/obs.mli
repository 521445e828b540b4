(** Observability: a domain-safe metrics registry and span tracer.

    Both sides are disabled by default and every instrumentation call
    checks a single [Atomic.t bool] first, so the instrumented hot paths
    pay one atomic load and a branch when observability is off — the
    sequential solver path stays bit-identical to the uninstrumented
    build.

    Metric names are sanitised to the Prometheus alphabet
    ([A-Za-z0-9_:]; leading digits prefixed with ['_']), so dynamic name
    fragments such as solver specs ("bandwidth-80", "robust-0.05:0.1")
    are safe to splice into a name.

    Determinism contract (locked by bench e26 and test_obs): with
    metrics enabled, all counters and histogram bucket counts outside
    the [pool_*] namespace and the [*_ms] latency histograms are
    identical across [CONFCALL_DOMAINS=1] and [=4] for re-ranked runner
    chains, sweeps and simulations.  Scheduler counters ([pool_*]) and
    wall-clock histograms ([*_ms]) are inherently timing-dependent and
    exempt. *)

(** [now ()] is a monotonised wall clock (seconds): successive calls,
    across domains, never go backwards even if the system clock is
    stepped. *)
val now : unit -> float

module Metrics : sig
  type t
  (** A registry: a mutex-protected map from metric name to metric.
      Registration is lazy — the first operation on a name creates the
      metric; operations on a disabled registry neither create nor
      mutate anything. *)

  val create : unit -> t

  val default : t
  (** Shared registry used by the [Obs.count]/[Obs.observe]/... shortcuts
      and by all built-in instrumentation. *)

  val set_enabled : t -> bool -> unit
  val enabled : t -> bool

  val reset : t -> unit
  (** Drop every registered metric (names and values). *)

  (** {2 Operations} — no-ops when the registry is disabled.  Reusing a
      name with a different metric kind (or different histogram buckets)
      raises [Invalid_argument]. *)

  val incr : t -> string -> unit
  val add : t -> string -> int -> unit
  val gauge_set : t -> string -> int -> unit
  val gauge_add : t -> string -> int -> unit

  val observe : t -> ?buckets:float array -> string -> float -> unit
  (** [observe t ~buckets name v] records [v] in the first bucket whose
      upper bound is [>= v] (values above the last bound go to the
      implicit [+Inf] overflow bucket).  [buckets] must be strictly
      increasing; it is fixed at first registration. *)

  (** {2 Snapshots} — for tests and bench equality checks. *)

  val counter_value : t -> string -> int
  (** 0 if the counter was never registered. *)

  val counters : t -> (string * int) list
  (** Sorted by name. *)

  val gauges : t -> (string * int) list
  (** Sorted by name. *)

  val histogram_buckets : t -> (string * int array) list
  (** Sorted by name; per-histogram non-cumulative bucket counts, the
      overflow bucket last. *)

  (** {2 Exposition} *)

  val to_json : t -> string
  (** [{"counters": {name: n, ...}, "gauges": {name: n, ...},
      "histograms": {name: {"count": n, "sum": s, "buckets": [{"le": b,
      "count": c}, ..., {"le": "+Inf", "count": n}]}, ...}}], a
      {!Wire.Json} tree printed by [Wire.Json.to_string]: cumulative
      bucket counts, names sorted, bounds and sums exact, a non-finite
      sum as a quoted [%h] string. *)

  val to_prometheus : t -> string
  (** Prometheus text exposition format (counters, gauges, and
      [_bucket]/[_sum]/[_count] histogram series with cumulative [le]
      labels). Finite numbers print as in {!to_json}; a non-finite sum
      as [+Inf], [-Inf] or [NaN]. *)
end

module Trace : sig
  type t
  (** A span buffer: completed spans are pushed under a mutex; ids come
      from an atomic counter so spans started on worker domains nest
      correctly via explicit parent ids. *)

  type span = {
    id : int;
    parent : int;  (** [< 0] means no parent. *)
    name : string;
    start_s : float;  (** [Obs.now] at entry. *)
    stop_s : float;
    domain : int;  (** Domain id the span completed on. *)
  }

  val create : unit -> t
  val default : t
  val set_enabled : t -> bool -> unit
  val enabled : t -> bool
  val reset : t -> unit

  val no_parent : int
  (** The id to pass for a root span; also what [with_span] hands to its
      callback when the tracer is disabled. *)

  val with_span : t -> ?parent:int -> string -> (int -> 'a) -> 'a
  (** [with_span t ~parent name f] runs [f id] and records the span even
      if [f] raises.  When disabled, calls [f no_parent] directly. *)

  val spans : t -> span list
  (** Completed spans sorted by (start time, id). *)

  val to_json : t -> string
  (** [{"spans": [{"id": .., "parent": ..|null, "name": .., "start_s": ..,
      "dur_ms": .., "domain": ..}, ...]}] sorted by start time, a
      {!Wire.Json} tree printed by [Wire.Json.to_string]: [start_s] and
      [dur_ms] exact. *)
end

(** {1 Shortcuts on the default registry and tracer} *)

val on : unit -> bool
(** True when the default metrics registry is enabled. *)

val count : string -> unit
val count_n : string -> int -> unit
val gauge_set : string -> int -> unit
val gauge_add : string -> int -> unit
val observe : ?buckets:float array -> string -> float -> unit

val span : ?parent:int -> string -> (int -> 'a) -> 'a
(** [Trace.with_span Trace.default]. *)

(** {1 Shared bucket layouts} *)

val latency_ms_buckets : float array
(** 0.1 .. 10_000 ms, roughly log-spaced — for [*_ms] histograms. *)

val small_count_buckets : float array
(** 1 .. 64 — for rounds-to-find and cells-per-round histograms. *)

val sanitize : string -> string
(** Map a raw string onto the Prometheus name alphabet. *)
