open Confcall

(* An exact [Lru] of stored bodies. The journal stays append-only —
   evicted entries keep their lines, and [Journal.completed] prevents a
   re-stored key from appending a duplicate id (which would refuse to
   load next restart). *)

type t = {
  mutex : Mutex.t;
  lru : string Lru.t;
  journal : Journal.t option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable store_errors : int;
}

let default_max_entries = 65536

(* Insert without journaling; evicts to stay within the cap. *)
let insert t ~key ~payload =
  if Lru.add t.lru key payload then begin
    t.evictions <- t.evictions + 1;
    if Obs.on () then Obs.count "serve_cache_evictions"
  end;
  if Obs.on () then Obs.gauge_set "serve_cache_entries" (Lru.length t.lru)

let create ?path ?(fsync = false) ?(max_entries = default_max_entries) () =
  if max_entries < 1 then
    invalid_arg "Cache.create: max_entries must be >= 1";
  let journal = Option.map (fun p -> Journal.load_or_create ~fsync p) path in
  let t =
    {
      mutex = Mutex.create ();
      lru = Lru.create max_entries;
      journal;
      hits = 0;
      misses = 0;
      evictions = 0;
      store_errors = 0;
    }
  in
  (* File order is oldest-first, so inserting in order and evicting as
     the cap is passed leaves exactly the newest [max_entries] resident
     — the journal keeps the rest on disk for the next incarnation. *)
  Option.iter
    (fun j ->
      List.iter
        (fun (key, payload) -> insert t ~key ~payload)
        (Journal.entries j))
    journal;
  t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t ~key =
  locked t @@ fun () ->
  match Lru.find t.lru key with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    if Obs.on () then Obs.count "serve_cache_hits";
    hit
  | None ->
    t.misses <- t.misses + 1;
    if Obs.on () then Obs.count "serve_cache_misses";
    None

let store t ~key ~payload =
  locked t @@ fun () ->
  if not (Lru.mem t.lru key) then begin
    insert t ~key ~payload;
    (* The memory entry stands whatever happens to the journal: a full
       disk or an injected fault must not cost the daemon its warm
       cache, only the persistence of this one answer. A key evicted
       and later re-solved is already journalled — appending it again
       would be a duplicate id the next load refuses. *)
    try
      Faultpoint.hit "cache.store";
      Option.iter
        (fun j ->
          if not (Journal.completed j key) then
            Journal.record j ~id:key ~payload)
        t.journal
    with _ ->
      t.store_errors <- t.store_errors + 1;
      if Obs.on () then Obs.count "serve_cache_store_errors"
  end

let entries t = locked t @@ fun () -> Lru.length t.lru
let hits t = locked t @@ fun () -> t.hits
let misses t = locked t @@ fun () -> t.misses
let evictions t = locked t @@ fun () -> t.evictions
let store_errors t = locked t @@ fun () -> t.store_errors

let close t =
  locked t @@ fun () ->
  Option.iter Journal.close t.journal
