(* A fixed-size pool of worker domains around one mutex-protected work
   queue. Tasks are closures; results flow back through per-[map] state
   published with atomics (the decrement of [remaining] is the release
   fence for the plain writes into the result slots, per the OCaml 5
   memory model's atomic happens-before).

   The caller of [map] is itself one of the pool's compute lanes: it
   drains the queue alongside the workers before blocking, so a pool of
   [domains] applies exactly [domains] domains and [domains = 1] spawns
   nothing at all — that degenerate case runs the elements in order on
   the caller. A pool created with [~caller:false] spawns all [domains]
   lanes instead and is fed by [submit]: the serve daemon's solve lanes,
   kept off the domain that runs its connection threads.

   Self-healing (DESIGN §11): a queued task is a {run; fail} pair, so a
   crash that escapes the task harness — an injected domain death, a
   [Stack_overflow] in result publication, an [Out_of_memory] — fails
   {e only that task} (the map above it sees an [Error] slot, never a
   hang) while the worker respawns a fresh domain in its place. A task
   that overstays a deadline is the caller's to stop, through the
   cooperative cancel token it handed the task. *)

(* The OCaml 5.1 runtime runs at most 128 domains (Max_domains), and
   domain 0 is one of them: 127 is the most a pool can spawn. *)
let max_domains = 127
let env_var = "CONFCALL_DOMAINS"

(* Workers spawned and not yet joined, across every live pool: the test
   suites assert this returns to zero, catching leaked domains. *)
let active = Atomic.make 0

let active_domains () = Atomic.get active

(* Lifetime totals across all pools, for the chaos bench and soaks:
   crashes on spawned worker domains (each one asks for a respawn; a
   crash on the caller's help loop recovers in place and is not
   counted), and respawned worker domains. *)
let all_worker_crashes = Atomic.make 0
let all_respawns = Atomic.make 0

let total_worker_crashes () = Atomic.get all_worker_crashes
let total_respawns () = Atomic.get all_respawns

exception Killed of exn

type task = {
  run : unit -> unit;  (* publishes its own result, normally *)
  fail : exn -> unit;  (* publish failure when [run] never got to *)
}

type t = {
  id : int;
  size : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stopped : bool;
  mutable joined : bool;
  mutable workers : unit Domain.t list;
  respawns : int Atomic.t;
}

let next_id = Atomic.make 0

(* Stack of pool ids whose tasks the current domain is executing —
   detects a task of pool [p] re-entering [map p], which would deadlock
   a single-domain queue. *)
let executing : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let respawns t = Atomic.get t.respawns

(* ---------------- workers, crashes, respawn ---------------- *)

(* Run one dequeued task on a worker (or the caller's help loop),
   turning anything that escapes the task's own harness into a
   contained crash: the task is failed — the map above sees an [Error]
   slot instead of hanging forever on [remaining] — and the caller
   decides whether the executing domain must be recycled. Returns
   [true] when the execution crashed. *)
let run_task_contained task =
  match
    Faultpoint.hit "pool.task.crash";
    Faultpoint.delay "pool.task.delay";
    task.run ()
  with
  | () -> false
  | exception Killed e ->
    (try task.fail e with _ -> ());
    true
  | exception e ->
    (try task.fail e with _ -> ());
    true

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopped do
    Condition.wait t.nonempty t.mutex
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* stopped and drained: queued work is always finished before a
         worker exits, so [join] during a straggling [map] cannot
         strand tasks. *)
      Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      if Obs.on () then begin
        Obs.count "pool_tasks_worker";
        Obs.gauge_add "pool_queue_depth" (-1)
      end;
      if run_task_contained task then begin
        Atomic.incr all_worker_crashes;
        respawn t
      end
      else worker_loop t

(* The executing domain is done for: it crashed out of a task. Hand
   the lane to a freshly spawned domain and let this one exit; the
   replacement's first act is to join its predecessor, keeping [active]
   accounting exact across any number of deaths. After [join] has begun (or if the spawn itself fails) the
   domain recovers in place instead: correctness never depends on the
   respawn succeeding. *)
and respawn t =
  let self = Domain.self () in
  Mutex.lock t.mutex;
  if t.joined then begin
    Mutex.unlock t.mutex;
    worker_loop t
  end
  else begin
    match
      Domain.spawn (fun () ->
          (* join the predecessor (it exits right after this spawn
             returns) and drop it from the books before serving. *)
          (Mutex.lock t.mutex;
           let pred =
             List.find_opt (fun d -> Domain.get_id d = self) t.workers
           in
           t.workers <- List.filter (fun d -> Domain.get_id d <> self) t.workers;
           Mutex.unlock t.mutex;
           match pred with
           | Some d ->
             Domain.join d;
             Atomic.decr active
           | None -> ());
          worker_loop t)
    with
    | d ->
      Atomic.incr active;
      t.workers <- d :: t.workers;
      Atomic.incr t.respawns;
      Atomic.incr all_respawns;
      Mutex.unlock t.mutex;
      if Obs.on () then begin
        Obs.count "pool_respawns";
        Obs.gauge_set "pool_active_domains" (Atomic.get active)
      end
    | exception _ ->
      (* Could not spawn a replacement (domain limit, resources):
         recover in place — a slightly stale stack beats a lost lane. *)
      Mutex.unlock t.mutex;
      worker_loop t
  end

let create ?(caller = true) ~domains () =
  if domains < 1 || domains > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.create: domains must be in [1, %d], got %d"
         max_domains domains);
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      size = domains;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      joined = false;
      workers = [];
      respawns = Atomic.make 0;
    }
  in
  (* Spawn accounting must stay exact even when a spawn fails halfway
     (the runtime's domain limit, resource exhaustion): [active] is
     incremented only after the spawn succeeded, and a partial failure
     stops and joins the workers already running before re-raising —
     otherwise [active_domains] would stay elevated forever and the
     leak tests downstream would blame an innocent caller. *)
  (try
     for _ = (if caller then 2 else 1) to domains do
       let d = Domain.spawn (fun () -> worker_loop t) in
       Atomic.incr active;
       t.workers <- d :: t.workers
     done
   with e ->
     Mutex.lock t.mutex;
     t.stopped <- true;
     t.joined <- true;
     Condition.broadcast t.nonempty;
     Mutex.unlock t.mutex;
     List.iter
       (fun d ->
         Domain.join d;
         Atomic.decr active)
       t.workers;
     t.workers <- [];
     if Obs.on () then Obs.gauge_set "pool_active_domains" (Atomic.get active);
     raise e);
  if Obs.on () then Obs.gauge_set "pool_active_domains" (Atomic.get active);
  t

let size t = t.size

let in_task t body =
  let stack = Domain.DLS.get executing in
  stack := t.id :: !stack;
  Fun.protect
    ~finally:(fun () ->
      match !stack with
      | _ :: rest -> stack := rest
      | [] -> ())
    body

let submit t task =
  Mutex.lock t.mutex;
  if t.joined || t.workers = [] then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool joined or without worker domains"
  end;
  Queue.add task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex;
  if Obs.on () then Obs.gauge_add "pool_queue_depth" 1

(* Core scheduler: every element becomes a {run; fail} task whose
   result lands in its input-index slot as a [result]; the caller helps
   drain the queue, then waits. *)
let run_all_parallel t f input =
  let n = Array.length input in
  let results = Array.make n None in
  let remaining = Atomic.make n in
  let all_done = Condition.create () in
  let publish i r =
    results.(i) <- Some r;
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      (* Last task out signals under the mutex, so the caller's
         check-then-wait below cannot miss the wakeup. *)
      Mutex.lock t.mutex;
      Condition.broadcast all_done;
      Mutex.unlock t.mutex
    end
  in
  let make_task i =
    let run () =
      publish i
        (in_task t (fun () ->
             try Ok (f input.(i)) with
             | Killed _ as k -> raise k
             | e -> Error e))
    in
    { run; fail = (fun e -> publish i (Error e)) }
  in
  let tasks = Array.init n make_task in
  Mutex.lock t.mutex;
  Array.iter (fun task -> Queue.add task t.queue) tasks;
  Condition.broadcast t.nonempty;
  if Obs.on () then Obs.gauge_add "pool_queue_depth" n;
  (* Caller helps: execute queued tasks (this run's or a concurrent
     one's) until the queue is dry, then wait for stragglers running
     on workers. A crash on the caller's domain is contained the same
     way as on a worker — the task is failed — but there is nothing to
     respawn: the caller simply keeps helping. *)
  let rec help () =
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        if Obs.on () then begin
          Obs.count "pool_tasks_caller";
          Obs.gauge_add "pool_queue_depth" (-1)
        end;
        ignore (run_task_contained task : bool);
        Mutex.lock t.mutex;
        help ()
    | None -> ()
  in
  help ();
  while Atomic.get remaining > 0 do
    Condition.wait all_done t.mutex
  done;
  Mutex.unlock t.mutex;
  Array.map
    (function
      | Some r -> r
      | None -> assert false)
    results

let run_all t f input =
  if t.joined then invalid_arg "Pool.run_all: pool already joined";
  if List.mem t.id !(Domain.DLS.get executing) then
    invalid_arg
      "Pool.run_all: nested map on the same pool from one of its tasks";
  if Array.length input = 0 then [||]
  else if t.size = 1 then
    (* Sequential: no domains; crashes are still contained per element
       so a chaos run on one core keeps the run_all contract (an
       [Error] slot, not an exception). *)
    Array.map
      (fun x ->
        match in_task t (fun () -> f x) with
        | v -> Ok v
        | exception Killed e -> Error e
        | exception e -> Error e)
      input
  else run_all_parallel t f input

(* The lowest-indexed failure is re-raised, so the raised exception is
   as deterministic as the results. *)
let map t f input =
  Array.map (function Ok v -> v | Error e -> raise e) (run_all t f input)

let map_list t f xs =
  Array.to_list (map t f (Array.of_list xs))

let join t =
  Mutex.lock t.mutex;
  if t.joined then Mutex.unlock t.mutex
  else begin
    t.joined <- true;
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    (* Snapshot under the mutex: respawns check [joined] under the same
       mutex before adding a worker, so this list is complete. *)
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    List.iter
      (fun d ->
        Domain.join d;
        Atomic.decr active)
      ws;
    if Obs.on () then Obs.gauge_set "pool_active_domains" (Atomic.get active)
  end

let with_pool ~domains f =
  let t = create ~domains () in
  Fun.protect ~finally:(fun () -> join t) (fun () -> f t)

let with_pool_opt ~domains f =
  if domains > 1 then with_pool ~domains (fun p -> f (Some p)) else f None
