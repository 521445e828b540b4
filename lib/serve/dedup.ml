(* Idempotency table: request_id -> execution state.

   The client retries and hedges freely; this table is what makes that
   safe on the server side. The first frame carrying a given
   [request_id] executes; any frame with the same id that arrives while
   that execution is in flight is parked as a waiter and answered from
   the single execution's terminal response; any frame arriving after
   completion is answered immediately from a bounded LRU of recent
   terminals. Either way the work runs — and is journalled — exactly
   once per daemon.

   Generic in both the waiter handle ['w] (the server stores
   (connection, frame id) pairs; tests store ints) and the completion
   payload ['p] (the server stores printed response bodies), so the
   table itself stays pure bookkeeping under one internal lock. *)

(* In-flight executions sit in a plain table with their parked
   waiters; completed payloads live in an [Lru] beside it. A key is in
   at most one of the two: [complete] moves it across, and a submit
   that finds it completed replays instead of executing again. *)
type ('w, 'p) t = {
  lock : Mutex.t;
  in_flight : (string, 'w list ref) Hashtbl.t;
  completed : 'p Lru.t;
  mutable hits_in_flight : int;
  mutable hits_completed : int;
  mutable evictions : int;
}

type stats = {
  in_flight : int;
  completed : int;
  hits_in_flight : int;
  hits_completed : int;
  evictions : int;
}

let create ~max_completed =
  if max_completed < 1 then invalid_arg "Dedup: max_completed must be >= 1";
  {
    lock = Mutex.create ();
    in_flight = Hashtbl.create 256;
    completed = Lru.create max_completed;
    hits_in_flight = 0;
    hits_completed = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- the three transitions ---- *)

let submit t key waiter =
  locked t (fun () ->
      match Hashtbl.find_opt t.in_flight key with
      | Some waiters ->
        waiters := waiter :: !waiters;
        t.hits_in_flight <- t.hits_in_flight + 1;
        `Queued
      | None -> (
        match Lru.find t.completed key with
        | Some payload ->
          t.hits_completed <- t.hits_completed + 1;
          `Replay payload
        | None ->
          Hashtbl.replace t.in_flight key (ref []);
          `Execute))

(* Terminal answer produced: memoize it, return the parked waiters for
   the caller to answer (outside the lock). Completing twice, or
   completing something never submitted, memoizes nothing new. *)
let complete t key payload =
  locked t (fun () ->
      match Hashtbl.find_opt t.in_flight key with
      | Some waiters ->
        Hashtbl.remove t.in_flight key;
        if Lru.add t.completed key payload then
          t.evictions <- t.evictions + 1;
        List.rev !waiters
      | None -> [])

(* Execution never happened (admission rejected the owner): drop the
   in-flight entry so a later retry may execute, and hand back any
   waiters that raced in so they hear the rejection too. *)
let abort t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.in_flight key with
      | Some waiters ->
        Hashtbl.remove t.in_flight key;
        List.rev !waiters
      | None -> [])

let stats t =
  locked t (fun () ->
      {
        in_flight = Hashtbl.length t.in_flight;
        completed = Lru.length t.completed;
        hits_in_flight = t.hits_in_flight;
        hits_completed = t.hits_completed;
        evictions = t.evictions;
      })
