(** Replicated simulation: independent seeded copies of one {!Sim}
    configuration, optionally run in parallel on a domain pool, reduced
    to aggregate metrics deterministically.

    One simulation run is a single draw from the mobility/traffic/fault
    distribution; confidence comes from replication. Replica [k] runs
    the identical config with seed [config.seed + k], so the replica
    set is a pure function of [(config, replicas)] — independent of the
    pool, the domain count, and scheduling. The reduction sorts by seed
    before folding, which makes the aggregate (including its float
    sums) independent of the order replicas completed or were listed
    in; the parallel path is therefore bit-identical to the sequential
    one. *)

type replica = { seed : int; result : Sim.result }

(** Aggregate of one scheme's metrics over all replicas: counters and
    EPs are summed; [mean_cells_per_call] is total cells over total
    calls. *)
type scheme_agg = {
  scheme : Sim.scheme;
  calls : int;
  devices_sought : int;
  cells_paged : int;
  expected_paging : float;
  rounds_used : int;
  mean_cells_per_call : float;
  retries : int;
  escalations : int;
  residual_misses : int;
}

type summary = {
  replicas : int;
  total_calls : int;
  skipped_calls : int;
  moves : int;
  updates : int;
  per_scheme : scheme_agg list;
}

(** [run ?pool ~replicas config] — the replica results, in seed order.
    Each replica is an independent [Sim.run]; with a multi-domain pool
    they execute concurrently (simulation state is per-run, so replicas
    share nothing but the immutable config). *)
val run : ?pool:Exec.Pool.t -> replicas:int -> Sim.config -> replica list

(** Order-independent aggregation (sorts by seed internally).
    @raise Invalid_argument on an empty list or replicas whose scheme
    lists disagree. *)
val reduce : replica list -> summary

(** [run_summary ?pool ~replicas config] = [reduce (run … config)]. *)
val run_summary : ?pool:Exec.Pool.t -> replicas:int -> Sim.config -> summary

val pp_summary : Format.formatter -> summary -> unit
