open Confcall

type listen = Client.endpoint = Tcp of int | Unix_path of string

type config = {
  listen : listen;
  domains : int;
  capacity : int;
  max_connections : int;
  cache_path : string option;
  cache_fsync : bool;
  max_frame_bytes : int;
  drain_grace_ms : float;
  quiet : bool;
  cache_max : int;
  write_timeout_ms : float;
  max_buffer_bytes : int;
  request_log : string option;
      (** append-only journal of executed request_ids (id TAB status):
          the exactly-once audit trail for retried/hedged requests *)
  dedup_max : int;  (** completed idempotency entries kept (LRU) *)
}

let default_config listen =
  {
    listen;
    domains = 1;
    capacity = 64;
    max_connections = 256;
    cache_path = None;
    cache_fsync = false;
    max_frame_bytes = Client.Transport.max_frame_bytes;
    drain_grace_ms = 10_000.0;
    quiet = false;
    cache_max = Cache.default_max_entries;
    write_timeout_ms = 5_000.0;
    max_buffer_bytes = 1024 * 1024;
    request_log = None;
    dedup_max = 4096;
  }

(* ---------------- the shedding ladder ---------------- *)

type ladder = Full | Heuristic | Fast

let ladder_to_string = function
  | Full -> "full"
  | Heuristic -> "heuristic"
  | Fast -> "fast"

let ladder_of_depth ~capacity depth =
  if depth * 2 < capacity then Full
  else if depth * 4 < capacity * 3 then Heuristic
  else Fast

let apply_ladder ladder chain =
  match ladder with
  | Full -> (chain, false)
  | Heuristic ->
    let kept =
      List.filter
        (fun s -> Runner.always_fast s || s = Solver.Local_search)
        chain
    in
    let kept =
      if kept = [] then Solver.[ Local_search; Greedy ] else kept
    in
    (kept, kept <> chain)
  | Fast ->
    let kept = List.filter Runner.always_fast chain in
    let kept = if kept = [] then [ Solver.Greedy ] else kept in
    (kept, kept <> chain)

module J = Wire.Json

(* ---------------- state ---------------- *)

(* Each connection owns a dedicated writer systhread draining a
   bounded output buffer: solver lanes and connection readers only ever
   append bytes under the mutex (never touching the socket), so a
   stalled or slow client can pin nothing but its own writer — and that
   writer enforces a per-chunk deadline, after which the client is
   declared dead and disconnected. Overflowing the buffer (a client
   reading slower than it asks questions) kills the connection the same
   way: backpressure, not unbounded memory. *)
type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  wcond : Condition.t;  (* writer wakeup: bytes queued, or shutdown *)
  wbuf : Buffer.t;
  mutable wclosed : bool;  (* no more appends; writer exits once dry *)
  mutable alive : bool;
  pending : int Atomic.t;  (** admitted jobs not yet answered *)
}

type work =
  | Jsolve of {
      inst : Instance.t;
      objective : Objective.t;
      spec : Solver.spec option;
      chain : Solver.spec list option;
      budget_ms : float option;
      ckey : string option;  (** cache key, when caching applies *)
    }
  | Jsim of {
      build : ?seed:int -> unit -> Cellsim.Sim.config;
      scenario : string;
      seed : int;
      replicas : int;
    }

type job = {
  conn : conn;
  id : string;
  request_id : string option;  (** idempotency key, when the client sent one *)
  work : work;
  admitted_s : float;  (** deadlines are armed here, not at execution *)
  ladder : ladder;
}

module Transport = Client.Transport

type state = {
  cfg : config;
  pool : Exec.Pool.t;  (** the solve lanes; admitted jobs queue here *)
  queued : int Atomic.t;  (** admitted jobs not yet started *)
  stopping : bool Atomic.t;  (** drain begun: reject new submissions *)
  drain_flag : bool Atomic.t;  (** signal-handler-safe drain request *)
  waker : Transport.waker;  (** wakes the accept loop's select *)
  wake_mutex : Mutex.t;
  mutable waker_open : bool;  (** under [wake_mutex] *)
  cache_closed : bool Atomic.t;
  connections : int Atomic.t;
  inflight : int Atomic.t;
  requests : int Atomic.t;
  shed : int Atomic.t;
  cache : Cache.t;
  exec_ms_ewma : float Atomic.t;  (* retry-after estimator *)
  (* Idempotency: request_id -> execution state. Waiters are
     (connection, frame id) pairs; the memoized payload is the terminal
     (status, rendered-fields-after-status) pair. *)
  dedup : (conn * string, string * string) Dedup.t;
  reqlog : Journal.t option;
  rlmutex : Mutex.t;  (* Journal.t is not thread-safe *)
}

type handle = {
  st : state;
  accept_thread : Thread.t;
  bound : Unix.sockaddr;
}

(* ---------------- socket plumbing ---------------- *)

(* One line per response, appended atomically w.r.t. other responses on
   the same connection: workers complete out of order, so pipelined
   responses interleave only at line granularity. A dead peer (or a
   full buffer) flips [alive] instead of raising — response loss to a
   vanished or hopelessly slow client is not an error. *)
let conn_send ?(max_buffer = max_int) conn line =
  Mutex.lock conn.wmutex;
  (if conn.alive && not conn.wclosed then begin
     if Buffer.length conn.wbuf + String.length line + 1 > max_buffer then begin
       conn.alive <- false;
       if Obs.on () then Obs.count "serve_write_overflow"
     end
     else begin
       Buffer.add_string conn.wbuf line;
       Buffer.add_char conn.wbuf '\n'
     end;
     Condition.signal conn.wcond
   end);
  Mutex.unlock conn.wmutex

(* The per-connection writer: sleeps until bytes are queued, drains
   them outside the lock, each drained chunk under one write deadline
   of [write_timeout_ms] — a peer that stops reading is declared dead
   when it passes, so no systhread is pinned by a stalled socket. The
   injected [serve.write] fault is a transient (absorbed, chunk
   retried); the delay point models a slow kernel buffer. Exits when
   the connection is shut down ([wclosed]) and the buffer is dry, or
   the moment the peer is declared dead (stalled, failed or overflowed
   its buffer) — and then shuts the socket down, so the reader stops
   too: the connection is over. *)
let writer_loop cfg conn =
  let timeout_s = cfg.write_timeout_ms /. 1000.0 in
  let rec write_chunk chunk =
    Faultpoint.delay "serve.write.delay";
    match Faultpoint.hit "serve.write" with
    | exception Faultpoint.Injected _ -> write_chunk chunk
    | () ->
      Transport.write_all conn.fd chunk ~deadline:(Obs.now () +. timeout_s)
  in
  let rec loop () =
    Mutex.lock conn.wmutex;
    while Buffer.length conn.wbuf = 0 && conn.alive && not conn.wclosed do
      Condition.wait conn.wcond conn.wmutex
    done;
    if Buffer.length conn.wbuf = 0 || not conn.alive then begin
      let dead = not conn.alive in
      Mutex.unlock conn.wmutex;
      if dead then
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ()
    end
    else begin
      let chunk = Buffer.contents conn.wbuf in
      Buffer.clear conn.wbuf;
      Mutex.unlock conn.wmutex;
      let written =
        match write_chunk chunk with
        | () -> true
        | exception Transport.Write_timeout ->
          if Obs.on () then Obs.count "serve_write_timeouts";
          false
        | exception (Unix.Unix_error _ | Sys_error _) -> false
      in
      if not written then begin
        Mutex.lock conn.wmutex;
        conn.alive <- false;
        Mutex.unlock conn.wmutex
      end;
      loop ()
    end
  in
  loop ()

let respond st conn line ~status =
  if Obs.on () then Obs.count ("serve_responses_" ^ status);
  conn_send ~max_buffer:st.cfg.max_buffer_bytes conn line

(* ---------------- idempotency fan-out ---------------- *)

let record_request st rid ~status =
  match st.reqlog with
  | None -> ()
  | Some j ->
    Mutex.lock st.rlmutex;
    (match Journal.record j ~id:rid ~payload:status with
     | () -> ()
     | exception (Invalid_argument _ | Failure _) ->
       (* duplicate id (an entry outlived its dedup memo — possible
          only after LRU eviction) or a broken journal: the daemon
          keeps serving, the log just misses this line *)
       if Obs.on () then Obs.count "serve_reqlog_drops");
    Mutex.unlock st.rlmutex

(* A response rebuilt for a frame that did not execute: same terminal
   body, the waiter's own frame id, plus a marker that it was
   deduplicated. *)
let dedup_line ~id ~status body =
  Wire.Proto.frame ~id ~status ~body [ ("dedup", J.Str "hit") ]

(* Every terminal answer to a solve funnels through here: answer the
   owning connection and, for a request carrying a request_id, journal
   the execution, memoize the terminal body, and answer the waiters
   parked by retried or hedged duplicates of the same request. [body]
   is a stored body (a cache hit) that precedes [fields]. *)
let terminal st conn ~id ~request_id ~status ?body fields =
  match request_id with
  | None -> respond st conn ~status (Wire.Proto.frame ~id ~status ?body fields)
  | Some rid ->
    let body = Wire.Proto.body ?stored:body fields in
    respond st conn ~status (Wire.Proto.frame ~id ~status ~body []);
    record_request st rid ~status;
    List.iter
      (fun (wconn, wid) ->
        respond st wconn ~status (dedup_line ~id:wid ~status body))
      (Dedup.complete st.dedup rid (status, body))

let terminal_error st conn ~id ~request_id msg =
  terminal st conn ~id ~request_id ~status:"error" [ ("error", J.Str msg) ]

(* A rejected submission never executed: drop the in-flight entry so a
   later retry may run, and give any waiters that raced in the same
   rejection (with the backoff hint) rather than an eternal wait. *)
let reject_waiters st ~request_id ?retry_after_ms ~reason () =
  match request_id with
  | None -> ()
  | Some rid ->
    List.iter
      (fun (wconn, wid) ->
        respond st wconn ~status:"rejected"
          (Wire.Proto.rejected_frame ~id:wid ?retry_after_ms ~reason ()))
      (Dedup.abort st.dedup rid)

(* ---------------- drain ---------------- *)

(* Wakes the accept loop parked in select. The wake-up byte is written
   under [wake_mutex], which [wait] holds to close the pipe, so it never
   lands on a closed (and perhaps reused) descriptor. *)
let initiate_drain st =
  if not (Atomic.exchange st.stopping true) then begin
    Mutex.lock st.wake_mutex;
    if st.waker_open then Transport.wake st.waker;
    Mutex.unlock st.wake_mutex
  end

(* ---------------- admission control ---------------- *)

(* How long a rejected client should back off: roughly the time for the
   current queue to drain through the workers, from the execution-time
   EWMA. Clamped — never 0 (that invites an instant retry storm), never
   more than 10 s. *)
let retry_after_hint st ~depth =
  let ewma = Atomic.get st.exec_ms_ewma in
  let per_job = if ewma > 0.0 then ewma else 10.0 in
  let est = float_of_int (max depth 1) *. per_job
            /. float_of_int st.cfg.domains in
  int_of_float (Float.min 10_000.0 (Float.max 1.0 est))

(* ---------------- solve execution (worker side) ---------------- *)

(* A spec as the cache key spells it: [Solver.spec_to_string], except
   that a robust radius is written exactly (%h), since %g would give
   robust-0.3000004 the key of robust-0.3. *)
let key_spec = function
  | Solver.Robust { eps; tv } ->
    if Float.is_finite tv then Printf.sprintf "robust-%h:%h" eps tv
    else Printf.sprintf "robust-%h" eps
  | s -> Solver.spec_to_string s

let mode_of_solve ~spec ~chain ~budgeted =
  match chain with
  | Some c -> Printf.sprintf "chain:%s|%s"
                (String.concat "," (List.map key_spec c))
                (if budgeted then "budgeted" else "unbudgeted")
  | None ->
    (match (spec, budgeted) with
     | Some s, false -> "spec:" ^ key_spec s
     | Some s, true -> Printf.sprintf "chain:%s|budgeted" (key_spec s)
     | None, true -> "chain:default|budgeted"
     | None, false -> "spec:greedy")

let cache_key ~objective ~mode inst =
  Signature.canonical_key ~objective inst
  ^ "|"
  ^ Digest.to_hex (Digest.string mode)

let outcome_fields spec (o : Solver.outcome) =
  [
    ("solver", J.Str (Solver.spec_to_string spec));
    ("strategy", J.int_rows (Strategy.groups o.Solver.strategy));
    ("expected_paging", J.Num o.Solver.expected_paging);
    ("exact", J.Bool o.Solver.exact);
  ]

(* Feed the retry-after estimator. A plain [Atomic.set] race loses at
   most one sample of a smoothed hint. *)
let note_exec_ms st elapsed_ms =
  let prev = Atomic.get st.exec_ms_ewma in
  Atomic.set st.exec_ms_ewma
    (if prev <= 0.0 then elapsed_ms
     else (0.9 *. prev) +. (0.1 *. elapsed_ms))

let execute_solve st job ~inst ~objective ~spec ~chain ~budget_ms ~ckey =
  let start_s = Obs.now () in
  let queue_ms = (start_s -. job.admitted_s) *. 1000.0 in
  let runner_path = budget_ms <> None || chain <> None in
  let finish ~status ?reason core =
    let elapsed_ms = (Obs.now () -. start_s) *. 1000.0 in
    note_exec_ms st elapsed_ms;
    if Obs.on () then begin
      Obs.observe ~buckets:Obs.latency_ms_buckets "serve_queue_ms" queue_ms;
      Obs.observe ~buckets:Obs.latency_ms_buckets "serve_exec_ms" elapsed_ms
    end;
    let tail =
      [
        ("ladder", J.Str (ladder_to_string job.ladder));
        ("queue_ms", J.Num queue_ms);
        ("elapsed_ms", J.Num elapsed_ms);
        ("cache", J.Str (if ckey = None then "off" else "miss"));
      ]
      @ match reason with
        | Some r -> [ ("degraded_reason", J.Str r) ]
        | None -> []
    in
    (* Only clean answers enter the cache: full ladder, full budget,
       nothing degraded — a clipped result must never be replayed to a
       healthy system. *)
    let body = Wire.Proto.body core in
    (match (status, ckey) with
     | "ok", Some key -> Cache.store st.cache ~key ~payload:body
     | _ -> ());
    terminal st job.conn ~id:job.id ~request_id:job.request_id ~status ~body
      tail
  in
  (* Worker lanes are domains: both paths below solve on the lane's own
     flat arena (the [Solver] default) and reuse it across the jobs it
     serves, so steady-state solving stays off the minor heap. *)
  if not runner_path then begin
    (* Direct path: one solver, no deadline — mirrors `confcall solve`.
       Under load the ladder swaps an expensive method for greedy. *)
    let requested = Option.value spec ~default:Solver.Greedy in
    let effective, downgraded =
      if job.ladder = Full || Runner.always_fast requested then
        (requested, false)
      else (Solver.Greedy, true)
    in
    match Solver.solve ~objective effective inst with
    | o ->
      let status = if downgraded then "degraded" else "ok" in
      let reason = if downgraded then Some "overload" else None in
      finish ~status ?reason (outcome_fields effective o)
    | exception Invalid_argument msg ->
      terminal_error st job.conn ~id:job.id ~request_id:job.request_id
        ("inapplicable: " ^ msg)
  end
  else begin
    let eff_chain, downgraded =
      apply_ladder job.ladder (Runner.resolve_chain ~chain ~spec)
    in
    (* The budget was armed at admission: queueing time already counts
       against it. An exhausted budget still runs the chain under a
       ~1 ms token, so the runner's grace window returns the anytime
       best-so-far instead of nothing. *)
    let expired =
      match budget_ms with Some b -> queue_ms >= b | None -> false
    in
    let eff_budget =
      Option.map (fun b -> Float.max (b -. queue_ms) 1.0) budget_ms
    in
    let report =
      Runner.run ~objective ?budget_ms:eff_budget ~chain:eff_chain inst
    in
    match report.Runner.winner with
    | None ->
      let msg =
        match report.Runner.failure with
        | Some e -> Runner.error_to_string e
        | None -> "no result"
      in
      terminal_error st job.conn ~id:job.id ~request_id:job.request_id msg
    | Some (wspec, o) ->
      let clipped =
        expired
        || List.exists
             (fun (s : Runner.stage_report) ->
               match s.Runner.status with
               | Runner.Degraded | Runner.Failed Runner.Timeout -> true
               | _ -> false)
             report.Runner.stages
      in
      let reasons =
        (if clipped then [ "budget" ] else [])
        @ if downgraded then [ "overload" ] else []
      in
      let status = if reasons = [] then "ok" else "degraded" in
      let reason =
        if reasons = [] then None else Some (String.concat "+" reasons)
      in
      finish ~status ?reason
        (outcome_fields wspec o
        @ [ ("chain", J.Str (Runner.chain_to_string report.Runner.chain)) ])
  end

let execute_sim st job ~build ~scenario ~seed ~replicas =
  let start_s = Obs.now () in
  let queue_ms = (start_s -. job.admitted_s) *. 1000.0 in
  (* One path for every replica count ([Proto] guarantees >= 1): a
     one-replica summary carries that run's calls, cells and EP. *)
  let summary =
    Cellsim.Replicate.run_summary ~replicas (build ?seed:(Some seed) ())
  in
  let per_scheme =
    List.map
      (fun (a : Cellsim.Replicate.scheme_agg) ->
        ( Cellsim.Sim.scheme_to_string a.Cellsim.Replicate.scheme,
          a.Cellsim.Replicate.calls,
          a.Cellsim.Replicate.cells_paged,
          a.Cellsim.Replicate.expected_paging ))
      summary.Cellsim.Replicate.per_scheme
  in
  let elapsed_ms = (Obs.now () -. start_s) *. 1000.0 in
  note_exec_ms st elapsed_ms;
  respond st job.conn ~status:"ok"
    (Wire.Proto.frame ~id:job.id ~status:"ok"
       [
         ("scenario", J.Str scenario);
         ("seed", J.int seed);
         ("replicas", J.int replicas);
         ( "per_scheme",
           J.Arr
             (List.map
                (fun (name, calls, cells, ep) ->
                  J.Obj
                    [
                      ("scheme", J.Str name);
                      ("calls", J.int calls);
                      ("cells_paged", J.int cells);
                      ("expected_paging", J.Num ep);
                    ])
                per_scheme) );
         ("queue_ms", J.Num queue_ms);
         ("elapsed_ms", J.Num elapsed_ms);
       ])

(* Exactly one terminal response per admitted job, even when execution
   throws: the catch-all turns a worker bug into an [error] frame
   instead of a dead daemon. *)
let execute st job =
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr job.conn.pending;
      Atomic.decr st.inflight;
      if Obs.on () then Obs.gauge_set "serve_inflight" (Atomic.get st.inflight))
    (fun () ->
      try
        match job.work with
        | Jsolve { inst; objective; spec; chain; budget_ms; ckey } ->
          execute_solve st job ~inst ~objective ~spec ~chain ~budget_ms ~ckey
        | Jsim { build; scenario; seed; replicas } ->
          execute_sim st job ~build ~scenario ~seed ~replicas
      with e ->
        terminal_error st job.conn ~id:job.id ~request_id:job.request_id
          ("internal: " ^ Printexc.to_string e))

(* An admitted job as a pool task. The [serve.lane.crash] seam fires
   first, before the job is taken, and kills the lane's domain: the pool
   respawns it, and [fail] puts the untouched job back on the queue, so
   a lane death costs no request however many lanes die. A job that
   started is never re-queued: [execute] answers it exactly once. *)
let rec job_task st job =
  let started = ref false in
  {
    Exec.Pool.run =
      (fun () ->
        (try Faultpoint.hit "serve.lane.crash"
         with Faultpoint.Injected _ as e -> raise (Exec.Pool.Killed e));
        started := true;
        let depth = Atomic.fetch_and_add st.queued (-1) - 1 in
        if Obs.on () then Obs.gauge_set "serve_queue_depth" depth;
        execute st job);
    fail = (fun _ -> if not !started then submit st job);
  }

(* A joined pool refuses the job: the drain got there first. The job
   never ran, so it is answered like any submission during a drain. *)
and submit st job =
  match Exec.Pool.submit st.pool (job_task st job) with
  | () -> ()
  | exception Invalid_argument _ ->
    Atomic.decr st.queued;
    Atomic.decr job.conn.pending;
    Atomic.decr st.inflight;
    respond st job.conn ~status:"rejected"
      (Wire.Proto.rejected_frame ~id:job.id ~reason:"draining" ());
    reject_waiters st ~request_id:job.request_id ~reason:"draining" ()

(* Take one queue slot if fewer than [capacity] are taken; the depth
   before the take, or [Error depth] at a full queue. *)
let rec reserve st =
  let depth = Atomic.get st.queued in
  if depth >= st.cfg.capacity then Error depth
  else if Atomic.compare_and_set st.queued depth (depth + 1) then Ok depth
  else reserve st

let admit st conn ~id ~request_id work =
  let reject ?retry_after_ms reason =
    respond st conn ~status:"rejected"
      (Wire.Proto.rejected_frame ~id ?retry_after_ms ~reason ());
    reject_waiters st ~request_id ?retry_after_ms ~reason ()
  in
  if Atomic.get st.stopping then reject "draining"
  else
    match reserve st with
    | Error depth ->
      Atomic.incr st.shed;
      if Obs.on () then Obs.count "serve_shed_total";
      reject ~retry_after_ms:(retry_after_hint st ~depth) "overload"
    | Ok depth ->
      let ladder = ladder_of_depth ~capacity:st.cfg.capacity depth in
      Atomic.incr conn.pending;
      Atomic.incr st.inflight;
      if Obs.on () then begin
        Obs.gauge_set "serve_queue_depth" (depth + 1);
        Obs.count ("serve_ladder_" ^ ladder_to_string ladder)
      end;
      submit st { conn; id; request_id; work; admitted_s = Obs.now (); ladder }

(* ---------------- request handling (connection side) ---------------- *)

let handle_solve st conn ~id (sr : Wire.Proto.solve_req) =
  let ( let* ) r f =
    match r with
    | Ok v -> f v
    | Error msg ->
      respond st conn ~status:"error" (Wire.Proto.error_frame ~id:(Some id) msg)
  in
  let* inst =
    match Instance.of_string sr.Wire.Proto.instance with
    | inst -> Ok inst
    | exception Invalid_argument msg -> Error ("instance: " ^ msg)
  in
  let* objective =
    match sr.Wire.Proto.objective with
    | None -> Ok Objective.Find_all
    | Some s -> Objective.of_string s
  in
  let* () =
    Runner.validate ~objective ?budget_ms:sr.Wire.Proto.budget_ms
      ~m:inst.Instance.m ()
  in
  (* An absent field stays [None]; a present one must parse, and its
     error names the field. *)
  let optional name parse = function
    | None -> Ok None
    | Some s ->
      Result.map Option.some
        (Result.map_error (fun e -> name ^ ": " ^ e) (parse s))
  in
  let* spec = optional "solver" Solver.spec_of_string sr.Wire.Proto.solver in
  let* chain = optional "chain" Runner.chain_of_string sr.Wire.Proto.chain in
  let ckey =
    if not sr.Wire.Proto.cache then None
    else
      let mode =
        mode_of_solve ~spec ~chain ~budgeted:(sr.Wire.Proto.budget_ms <> None)
      in
      Some (cache_key ~objective ~mode inst)
  in
  let request_id = sr.Wire.Proto.request_id in
  (* Cache hits are answered here, from the connection thread, without
     touching the queue: a warm daemon under overload still serves
     repeats instantly, and a restarted daemon serves its journal. *)
  let proceed () =
    match Option.bind ckey (fun key -> Cache.find st.cache ~key) with
    | Some body ->
      terminal st conn ~id ~request_id ~status:"ok" ~body
        [ ("cache", J.Str "hit") ]
    | None ->
      admit st conn ~id ~request_id
        (Jsolve
           {
             inst;
             objective;
             spec;
             chain;
             budget_ms = sr.Wire.Proto.budget_ms;
             ckey;
           })
  in
  match request_id with
  | None -> proceed ()
  | Some rid -> (
    (* The idempotency gate: first frame with this request_id executes;
       a duplicate arriving mid-execution parks as a waiter on the
       single execution; a duplicate arriving after completion replays
       the memoized terminal. *)
    match Dedup.submit st.dedup rid (conn, id) with
    | `Execute -> proceed ()
    | `Queued -> if Obs.on () then Obs.count "serve_dedup_inflight_hits"
    | `Replay (status, payload) ->
      if Obs.on () then Obs.count "serve_dedup_replays";
      respond st conn ~status (dedup_line ~id ~status payload))

let health_response st ~id =
  let ds = Dedup.stats st.dedup in
  Wire.Proto.frame ~id ~status:"ok"
    [
      ("draining", J.Bool (Atomic.get st.stopping));
      ("queue_depth", J.int (Atomic.get st.queued));
      ("capacity", J.int st.cfg.capacity);
      ("domains", J.int st.cfg.domains);
      ("inflight", J.int (Atomic.get st.inflight));
      ("connections", J.int (Atomic.get st.connections));
      ("cache_entries", J.int (Cache.entries st.cache));
      ("cache_hits", J.int (Cache.hits st.cache));
      ("cache_misses", J.int (Cache.misses st.cache));
      ("cache_evictions", J.int (Cache.evictions st.cache));
      ("pool_respawns", J.int (Exec.Pool.total_respawns ()));
      ("dedup_in_flight", J.int ds.Dedup.in_flight);
      ("dedup_completed", J.int ds.Dedup.completed);
      ("dedup_hits", J.int (ds.Dedup.hits_in_flight + ds.Dedup.hits_completed));
      ("request_log", J.Bool (st.reqlog <> None));
    ]

let handle_frame st conn line =
  match Wire.Proto.decode line with
  | Error (id, msg) ->
    if Obs.on () then Obs.count "serve_frame_errors";
    respond st conn ~status:"error" (Wire.Proto.error_frame ~id msg)
  | Ok { Wire.Proto.id; req } ->
    Atomic.incr st.requests;
    (match req with
     | Wire.Proto.Health ->
       respond st conn ~status:"ok" (health_response st ~id)
     | Wire.Proto.Metrics ->
       respond st conn ~status:"ok"
         (Wire.Proto.frame ~id ~status:"ok"
            [
              ( "prometheus",
                J.Str (Obs.Metrics.to_prometheus Obs.Metrics.default) );
            ])
     | Wire.Proto.Drain ->
       initiate_drain st;
       respond st conn ~status:"ok"
         (Wire.Proto.frame ~id ~status:"ok" [ ("draining", J.Bool true) ])
     | Wire.Proto.Solve sr -> handle_solve st conn ~id sr
     | Wire.Proto.Simulate { scenario; seed; replicas } ->
       (match Cellsim.Scenario.find scenario with
        | Error e ->
          respond st conn ~status:"error"
            (Wire.Proto.error_frame ~id:(Some id) e)
        | Ok build ->
          admit st conn ~id ~request_id:None
            (Jsim { build; scenario; seed; replicas })))

(* ---------------- connection lifecycle ---------------- *)

(* Frames until EOF. An oversized frame is answered once, and the
   stream resynchronises at the next newline. *)
let read_loop st conn =
  let error_frame msg =
    respond st conn ~status:"error" (Wire.Proto.error_frame ~id:None msg)
  in
  Transport.read_frames conn.fd ~cap:st.cfg.max_frame_bytes
    ~before_read:(fun () ->
      Faultpoint.delay "serve.read.delay";
      match Faultpoint.hit "serve.read" with
      | () -> true
      | exception Faultpoint.Injected _ -> false (* transient: retry *))
    ~on_oversize:(fun () ->
      if Obs.on () then Obs.count "serve_frame_errors";
      error_frame
        (Printf.sprintf "frame exceeds %d bytes" st.cfg.max_frame_bytes))
    (fun line ->
      try handle_frame st conn line
      with e -> error_frame ("internal: " ^ Printexc.to_string e))

let conn_main st fd =
  let conn =
    {
      fd;
      wmutex = Mutex.create ();
      wcond = Condition.create ();
      wbuf = Buffer.create 4096;
      wclosed = false;
      alive = true;
      pending = Atomic.make 0;
    }
  in
  let writer = Thread.create (writer_loop st.cfg) conn in
  if Obs.on () then Obs.gauge_set "serve_connections" (Atomic.get st.connections);
  Fun.protect
    ~finally:(fun () ->
      (* EOF with responses still in flight: linger until the workers
         have answered (or a generous bound passes), then let the
         writer drain what they queued before closing the socket. *)
      let deadline = Obs.now () +. 60.0 in
      while Atomic.get conn.pending > 0 && Obs.now () < deadline do
        Thread.delay 0.005
      done;
      Mutex.lock conn.wmutex;
      conn.wclosed <- true;
      Condition.signal conn.wcond;
      Mutex.unlock conn.wmutex;
      Thread.join writer;
      Mutex.lock conn.wmutex;
      conn.alive <- false;
      Mutex.unlock conn.wmutex;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      Atomic.decr st.connections;
      if Obs.on () then
        Obs.gauge_set "serve_connections" (Atomic.get st.connections))
    (fun () -> read_loop st conn)

(* ---------------- accept loop ---------------- *)

(* A stale socket file left by a killed daemon is replaced. *)
let bind_listen cfg =
  Transport.socket cfg.listen (fun fd addr ->
      (match cfg.listen with
       | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
       | Unix_path path -> (
         try
           if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
         with Unix.Unix_error _ -> ()));
      Unix.bind fd addr;
      Unix.listen fd 128)

let close_listen cfg lfd =
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  match cfg.listen with
  | Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* Give an accepted socket its connection thread, or, at the
   connection cap, answer "too many connections" under a 1 s write
   deadline (an accept-time abuser cannot stall the accept loop) and
   close it. *)
let take_conn st fd =
  if Atomic.get st.connections >= st.cfg.max_connections then begin
    (try
       Transport.write_all fd ~deadline:(Obs.now () +. 1.0)
         (Wire.Proto.error_frame ~id:None "too many connections" ^ "\n")
     with Unix.Unix_error _ | Sys_error _ | Transport.Write_timeout -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    Atomic.incr st.connections;
    ignore (Thread.create (conn_main st) fd)
  end

(* Select on the listening socket and the wake-up pipe instead of a
   blocking accept: a drain wakes the loop at once. The loop also
   promotes a signal-handler drain request (an atomic flag — handlers
   must not lock) into the real drain; the short timeout covers a
   handler that runs after the loop last looked at the flag. *)
let accept_loop st lfd =
  let rec go () =
    if Atomic.get st.drain_flag then initiate_drain st;
    if not (Atomic.get st.stopping) then begin
      (match Unix.select [ lfd; st.waker.Transport.wake_fd ] [] [] 0.1 with
       | ready, _, _ when not (List.mem lfd ready) -> ()
       | _ ->
         (match
            Faultpoint.hit "serve.accept";
            Unix.accept ~cloexec:true lfd
          with
          | exception Faultpoint.Injected _ -> () (* transient: retry *)
          | fd, _ ->
            (* A connection the kernel completed just before the drain
               flag was observed raced the drain fairly: closing it here
               would RST a client mid-burst (its unread request bytes
               turn close into a reset). Serve it — admission answers
               every submission with a terminal "draining" reject. *)
            take_conn st fd
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
            ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ();
  (* Final sweep: connections already completed by the listen backlog
     when the drain landed would be RST by closing [lfd] under them.
     Accept and serve each one — their submissions reject terminally. *)
  let rec sweep () =
    match Unix.select [ lfd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        take_conn st fd;
        sweep ()
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  sweep ();
  close_listen st.cfg lfd

(* ---------------- lifecycle ---------------- *)

let validate cfg =
  if cfg.domains < 1 || cfg.domains > Exec.Pool.max_domains then
    invalid_arg
      (Printf.sprintf "serve: domains must be in [1, %d], got %d"
         Exec.Pool.max_domains cfg.domains);
  if cfg.capacity < 1 then invalid_arg "serve: capacity must be >= 1";
  if cfg.max_connections < 1 then
    invalid_arg "serve: max_connections must be >= 1";
  if cfg.max_frame_bytes < 1024 then
    invalid_arg "serve: max_frame_bytes must be >= 1024";
  if not (Float.is_finite cfg.drain_grace_ms) || cfg.drain_grace_ms <= 0.0 then
    invalid_arg "serve: drain_grace_ms must be positive";
  if cfg.cache_max < 1 then invalid_arg "serve: cache_max must be >= 1";
  if
    not (Float.is_finite cfg.write_timeout_ms) || cfg.write_timeout_ms <= 0.0
  then invalid_arg "serve: write_timeout_ms must be positive";
  if cfg.max_buffer_bytes < 4096 then
    invalid_arg "serve: max_buffer_bytes must be >= 4096";
  if cfg.dedup_max < 1 then invalid_arg "serve: dedup_max must be >= 1"

let start cfg =
  validate cfg;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  let cache =
    Cache.create ?path:cfg.cache_path ~fsync:cfg.cache_fsync
      ~max_entries:cfg.cache_max ()
  in
  let lfd = bind_listen cfg in
  let bound = Unix.getsockname lfd in
  (* The solve lanes are the pool's spawned workers, none on this
     domain: domain 0 hosts every connection thread, and a CPU-bound
     solve there would hold the runtime lock for whole preemption quanta
     (~50 ms) and stall even trivial admission rejections behind it. *)
  let pool =
    try Exec.Pool.create ~caller:false ~domains:cfg.domains ()
    with e ->
      close_listen cfg lfd;
      Cache.close cache;
      raise e
  in
  let st =
    {
      cfg;
      pool;
      queued = Atomic.make 0;
      stopping = Atomic.make false;
      drain_flag = Atomic.make false;
      waker = Transport.waker ();
      wake_mutex = Mutex.create ();
      waker_open = true;
      cache_closed = Atomic.make false;
      connections = Atomic.make 0;
      inflight = Atomic.make 0;
      requests = Atomic.make 0;
      shed = Atomic.make 0;
      cache;
      exec_ms_ewma = Atomic.make 0.0;
      dedup = Dedup.create ~max_completed:cfg.dedup_max;
      reqlog = Option.map (fun p -> Journal.load_or_create p) cfg.request_log;
      rlmutex = Mutex.create ();
    }
  in
  let accept_thread = Thread.create (accept_loop st) lfd in
  if not cfg.quiet then
    Printf.eprintf "confcall serve: listening on %s (domains=%d capacity=%d)\n%!"
      (match bound with
       | Unix.ADDR_INET (_, port) -> Printf.sprintf "127.0.0.1:%d" port
       | Unix.ADDR_UNIX p -> p)
      cfg.domains cfg.capacity;
  { st; accept_thread; bound }

let bound_port h =
  match h.bound with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

let request_drain h =
  Atomic.set h.st.drain_flag true;
  initiate_drain h.st

(* Block until every admitted job is answered, then join the worker
   pool; [false] when the config's drain grace elapsed first (workers
   are then left to finish on their own and the cache journal is not
   closed). A submission racing the join is refused by the pool and
   answered as a draining reject. *)
let wait h =
  Thread.join h.accept_thread;
  Mutex.lock h.st.wake_mutex;
  if h.st.waker_open then begin
    h.st.waker_open <- false;
    Transport.close_waker h.st.waker
  end;
  Mutex.unlock h.st.wake_mutex;
  let deadline = Obs.now () +. (h.st.cfg.drain_grace_ms /. 1000.0) in
  let rec poll () =
    if Atomic.get h.st.inflight = 0 then true
    else if Obs.now () >= deadline then false
    else begin
      Thread.delay 0.005;
      poll ()
    end
  in
  let clean = poll () in
  if clean then begin
    Exec.Pool.join h.st.pool;
    if not (Atomic.exchange h.st.cache_closed true) then begin
      Cache.close h.st.cache;
      Option.iter Journal.close h.st.reqlog
    end
  end;
  clean

let stop h =
  request_drain h;
  wait h

let run cfg =
  let h = start cfg in
  (* Handlers only flip an atomic and wake the accept loop, which
     performs the drain in thread context. They take no lock, so a
     handler that runs after [wait] closed the pipe writes to a closed
     descriptor and the error is dropped; [run] opens none after it. *)
  let on_signal _ =
    Atomic.set h.st.drain_flag true;
    Transport.wake h.st.waker
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let clean = wait h in
  if not cfg.quiet then
    Printf.eprintf
      "confcall serve: drained%s (requests=%d shed=%d cache: %d entries, %d \
       hits, %d misses)\n\
       %!"
      (if clean then "" else " INCOMPLETE")
      (Atomic.get h.st.requests) (Atomic.get h.st.shed)
      (Cache.entries h.st.cache) (Cache.hits h.st.cache)
      (Cache.misses h.st.cache);
  clean
