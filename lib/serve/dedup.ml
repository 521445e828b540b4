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

(* [Done] entries form an intrusive doubly-linked LRU over their
   request-id keys, newest at the front, same construction as
   [Cache]. *)
type 'p node = {
  payload : 'p;
  mutable prev : string option;
  mutable next : string option;
}

type ('w, 'p) entry = In_flight of { mutable waiters : 'w list } | Done of 'p node

type ('w, 'p) t = {
  lock : Mutex.t;
  table : (string, ('w, 'p) entry) Hashtbl.t;
  max_completed : int;
  mutable front : string option;
  mutable back : string option;
  mutable completed : int;
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
    table = Hashtbl.create 256;
    max_completed;
    front = None;
    back = None;
    completed = 0;
    hits_in_flight = 0;
    hits_completed = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- intrusive LRU plumbing (keys of Done entries) ---- *)

let done_exn t key =
  match Hashtbl.find_opt t.table key with
  | Some (Done d) -> d
  | _ -> invalid_arg "Dedup: LRU key is not a Done entry"

let unlink t d =
  (match d.prev with
   | Some p -> (done_exn t p).next <- d.next
   | None -> t.front <- d.next);
  (match d.next with
   | Some n -> (done_exn t n).prev <- d.prev
   | None -> t.back <- d.prev);
  d.prev <- None;
  d.next <- None

let push_front t key d =
  d.prev <- None;
  d.next <- t.front;
  (match t.front with
   | Some f -> (done_exn t f).prev <- Some key
   | None -> t.back <- Some key);
  t.front <- Some key

let touch t key d =
  if t.front <> Some key then begin
    unlink t d;
    push_front t key d
  end

let evict_oldest t =
  match t.back with
  | None -> ()
  | Some key ->
    let d = done_exn t key in
    unlink t d;
    Hashtbl.remove t.table key;
    t.completed <- t.completed - 1;
    t.evictions <- t.evictions + 1

(* ---- the three transitions ---- *)

let submit t key waiter =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None ->
        Hashtbl.replace t.table key (In_flight { waiters = [] });
        `Execute
      | Some (In_flight e) ->
        e.waiters <- waiter :: e.waiters;
        t.hits_in_flight <- t.hits_in_flight + 1;
        `Queued
      | Some (Done d) ->
        touch t key d;
        t.hits_completed <- t.hits_completed + 1;
        `Replay d.payload)

(* Terminal answer produced: memoize it, return the parked waiters for
   the caller to answer (outside the lock). *)
let complete t key payload =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (In_flight e) ->
        let d = { payload; prev = None; next = None } in
        Hashtbl.replace t.table key (Done d);
        push_front t key d;
        t.completed <- t.completed + 1;
        if t.completed > t.max_completed then evict_oldest t;
        List.rev e.waiters
      | Some (Done _) | None ->
        (* completing twice, or completing something never submitted:
           nothing to memoize that is not already there *)
        [])

(* Execution never happened (admission rejected the owner): drop the
   in-flight entry so a later retry may execute, and hand back any
   waiters that raced in so they hear the rejection too. *)
let abort t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (In_flight e) ->
        Hashtbl.remove t.table key;
        List.rev e.waiters
      | Some (Done _) | None -> [])

let stats t =
  locked t (fun () ->
      {
        in_flight = Hashtbl.length t.table - t.completed;
        completed = t.completed;
        hits_in_flight = t.hits_in_flight;
        hits_completed = t.hits_completed;
        evictions = t.evictions;
      })
