(** Solver-result cache for the daemon, keyed on
    {!Confcall.Signature.canonical_key} material.

    In-memory LRU (bounded at [max_entries]; least-recently-used
    entries are evicted, counted in {!evictions}), optionally backed by
    a crash-safe {!Confcall.Journal} so a restarted daemon serves hits
    for everything the previous incarnation solved — loading keeps the
    {e newest} [max_entries] journal records resident; the rest stay on
    disk. Thread-safe: connection threads look up, worker domains
    store.

    Only {e clean} results belong here — the server stores a payload
    only when the solve completed undegraded, so an overload-downgraded
    or deadline-clipped answer can never be replayed to a healthy
    system.

    Failure containment (DESIGN §11): a journal append that fails (disk
    full, torn write, injected fault) costs only that entry's
    persistence — the in-memory entry stands, the error is counted in
    {!store_errors}, and the daemon keeps serving. *)

type t

(** Default [max_entries]: 65536. *)
val default_max_entries : int

(** [create ?path ?fsync ?max_entries ()] — memory-only when [path] is
    [None]; otherwise loads (or creates) the journal at [path]. [fsync]
    (default false) makes each store survive power loss.
    @raise Invalid_argument as {!Confcall.Journal.load_or_create}
    (duplicate ids in a corrupted file), or when [max_entries < 1]. *)
val create : ?path:string -> ?fsync:bool -> ?max_entries:int -> unit -> t

val find : t -> key:string -> string option
(** Marks the entry most-recently-used. Increments the hit/miss
    counters (also mirrored to [Obs] as
    [serve_cache_hits]/[serve_cache_misses] when metrics are on). *)

val store : t -> key:string -> payload:string -> unit
(** First writer wins; a concurrent duplicate store is a no-op. May
    evict the least-recently-used entry ([serve_cache_evictions]).
    Journal failures are absorbed ({!store_errors}). The payload must
    be journal-safe (no newlines). *)

val entries : t -> int

val hits : t -> int

val misses : t -> int

val evictions : t -> int
(** Entries dropped to keep the cache within [max_entries] (including
    any dropped while loading an over-cap journal). *)

val store_errors : t -> int
(** Journal appends that failed and were absorbed. *)

val close : t -> unit
