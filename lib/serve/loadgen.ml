open Confcall

type target = Client.endpoint = Tcp of int | Unix_path of string

type opts = {
  rate : float;
  requests : int;
  budget_ms : float option;
  solver : string option;
  chain : string option;
  m : int;
  c : int;
  d : int;
  instances : int;
  connections : int;
  seed : int;
  cache : bool;
  timeout_s : float;
  retries : int;  (** per-request retry budget; 0 = resilience off *)
  hedge_after_ms : float option;  (** tail-latency hedge delay *)
}

let default_opts =
  {
    rate = 50.0;
    requests = 200;
    budget_ms = None;
    solver = Some "greedy";
    chain = None;
    m = 3;
    c = 12;
    d = 2;
    instances = 32;
    connections = 4;
    seed = 1;
    cache = false;
    timeout_s = 30.0;
    retries = 0;
    hedge_after_ms = None;
  }

type stats = {
  sent : int;
  ok : int;
  degraded : int;
  rejected : int;
  errors : int;
  unanswered : int;
  conn_lost : int;
      (** in flight on a connection that died (legacy path); the
          resilient path retries these instead *)
  retried : int;  (** requests that retried at least once *)
  failed_over : int;  (** requests answered after moving endpoints *)
  hedge_wins : int;  (** requests whose hedge beat the primary *)
  duration_s : float;
  throughput : float;
  accepted_ms : float array;
  rejected_ms : float array;
  ladder : (string * int) list;
}

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let idx = Int.max 0 (Int.min (n - 1) (rank - 1)) in
    xs.(idx)
  end

let validate o =
  if not (Float.is_finite o.rate) || o.rate <= 0.0 then
    invalid_arg "loadgen: rate must be positive";
  if o.requests < 1 then invalid_arg "loadgen: requests must be >= 1";
  if o.instances < 1 then invalid_arg "loadgen: instances must be >= 1";
  if o.connections < 1 then invalid_arg "loadgen: connections must be >= 1";
  if o.retries < 0 then invalid_arg "loadgen: retries must be >= 0";
  if not (Float.is_finite o.timeout_s) || o.timeout_s <= 0.0 then
    invalid_arg
      (Printf.sprintf "loadgen: timeout_s must be finite and positive, got %g"
         o.timeout_s);
  if o.m < 1 then
    invalid_arg (Printf.sprintf "loadgen: m must be >= 1, got %d" o.m);
  if o.c < 1 then
    invalid_arg (Printf.sprintf "loadgen: c must be >= 1, got %d" o.c);
  if o.d < 1 || o.d > o.c then
    invalid_arg
      (Printf.sprintf "loadgen: d must be in [1, c = %d], got %d" o.c o.d);
  (match o.hedge_after_ms with
   | Some h when not (Float.is_finite h) || h < 0.0 ->
     invalid_arg "loadgen: hedge_after_ms must be >= 0"
   | _ -> ());
  match o.budget_ms with
  | Some b when not (Float.is_finite b) || b <= 0.0 ->
    invalid_arg "loadgen: budget_ms must be positive"
  | _ -> ()

let connect target =
  match target with
  | Tcp port ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  | Unix_path path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Shared between both paths: the workload (instances, arrival gaps)
   and the request fields. Byte-for-byte the same frames either way —
   except the resilient path's [id]/[request_id], which the client
   runtime owns. *)
type workload = {
  pool : string array;
  assignment : int array;
  gaps : float array;
}

let make_workload o =
  let rng = Prob.Rng.create ~seed:o.seed in
  let pool =
    Array.init o.instances (fun _ ->
        Instance.to_string
          (Instance.random_zipf rng ~s:1.1 ~m:o.m ~c:o.c ~d:o.d))
  in
  let assignment =
    Array.init o.requests (fun _ -> Prob.Rng.int rng o.instances)
  in
  let gaps =
    Array.init o.requests (fun i ->
        if i = 0 then 0.0 else Prob.Rng.exponential rng ~rate:o.rate)
  in
  { pool; assignment; gaps }

let solve_fields o w i =
  Wire.Proto.solve_fields
    {
      instance = w.pool.(w.assignment.(i));
      solver = o.solver;
      chain = o.chain;
      budget_ms = o.budget_ms;
      objective = None;
      cache = o.cache;
      request_id = None;
    }

(* The rung that answered: ["cache"] for a hit, else the ladder rung. *)
let rung_of (r : Wire.Proto.response) =
  if r.Wire.Proto.cache_hit then Some "cache"
  else
    Option.bind (Wire.Json.member "ladder" r.Wire.Proto.json) Wire.Json.to_str

(* One record per response, filled in by the receiver threads. *)
type reply = { status : string; rung : string option; recv_s : float }

let summarize ~sent ~start_s ~last_s ~conn_lost ~retried ~failed_over
    ~hedge_wins ~counts =
  let ok, degraded, rejected, errors, accepted, shed, ladder = counts in
  let answered_n = ok + degraded + rejected + errors in
  let duration_s = Float.max (last_s -. start_s) 1e-9 in
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  {
    sent;
    ok;
    degraded;
    rejected;
    errors;
    unanswered = sent - answered_n - conn_lost;
    conn_lost;
    retried;
    failed_over;
    hedge_wins;
    duration_s;
    throughput = float_of_int answered_n /. duration_s;
    accepted_ms = sorted accepted;
    rejected_ms = sorted shed;
    ladder =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ladder []);
  }

(* ---------------- legacy path: raw pipelined connections -------------

   The original loadgen: N pipelined connections to one daemon, frame
   [i] on connection [i mod N]. Wire bytes are unchanged from before
   the resilient client existed (no [request_id] field). A connection
   that dies mid-run no longer aborts the whole run: its in-flight
   requests are recorded as [conn_lost], later sends reroute to the
   surviving connections, and the summary reports the split. *)

let run_legacy target o =
  let w = make_workload o in
  let frame i =
    Wire.Json.to_string
      (Wire.Json.Obj
         (("id", Wire.Json.Str (Printf.sprintf "r%d" i)) :: solve_fields o w i))
    ^ "\n"
  in
  let conns = Array.init o.connections (fun _ -> connect target) in
  let dead = Array.make o.connections false in
  let teardown = Atomic.make false in
  let replies : (int, reply) Hashtbl.t = Hashtbl.create o.requests in
  let rmutex = Mutex.create () in
  let answered = Atomic.make 0 in
  let receiver k =
    let fd = conns.(k) in
    let chunk = Bytes.create 65536 in
    let acc = Buffer.create 4096 in
    let handle line =
      match Wire.Proto.decode_response line with
      | Ok ({ Wire.Proto.rid = Some id; _ } as r)
        when String.length id > 1 && id.[0] = 'r' -> (
        match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
        | Some i ->
          let reply =
            {
              status = r.Wire.Proto.status;
              rung = rung_of r;
              recv_s = Obs.now ();
            }
          in
          Mutex.lock rmutex;
          if not (Hashtbl.mem replies i) then begin
            Hashtbl.replace replies i reply;
            Atomic.incr answered
          end;
          Mutex.unlock rmutex
        | None -> ())
      | _ -> ()
    in
    let rec pump () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        for i = 0 to n - 1 do
          let c = Bytes.get chunk i in
          if c = '\n' then begin
            handle (Buffer.contents acc);
            Buffer.clear acc
          end
          else Buffer.add_char acc c
        done;
        pump ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | exception Unix.Unix_error _ -> ()
      | exception Sys_error _ -> ()
    in
    pump ();
    (* EOF or error before the run tore the socket down: the daemon
       side died under us. Everything in flight here is lost. *)
    if not (Atomic.get teardown) then dead.(k) <- true
  in
  let receivers = Array.init o.connections (fun k -> Thread.create receiver k) in
  let send_s = Array.make o.requests 0.0 in
  let conn_of = Array.make o.requests (-1) in
  let start_s = Obs.now () in
  let sent = ref 0 in
  (* Open loop: each request goes out at its scheduled arrival time,
     whatever the daemon is doing. Falling behind (blocked writes) is
     made visible by sending immediately once past-due. A dead
     connection only loses its own traffic: the send rotates to the
     next surviving one. *)
  let send i =
    let rec try_from k tried =
      if tried >= o.connections then false
      else if dead.(k) then try_from ((k + 1) mod o.connections) (tried + 1)
      else
        match write_all conns.(k) (frame i) with
        | () ->
          conn_of.(i) <- k;
          true
        | exception (Unix.Unix_error _ | Sys_error _) ->
          dead.(k) <- true;
          try_from ((k + 1) mod o.connections) (tried + 1)
    in
    try_from (i mod o.connections) 0
  in
  (try
     let due = ref start_s in
     let alive = ref true in
     let i = ref 0 in
     while !alive && !i < o.requests do
       due := !due +. w.gaps.(!i);
       let delay = !due -. Obs.now () in
       if delay > 0.0 then Thread.delay delay;
       send_s.(!i) <- Obs.now ();
       if send !i then incr sent else alive := false;
       incr i
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  (* Straggler window: responses owed for everything sent on a
     connection that is still alive. *)
  let outstanding () =
    let n = ref 0 in
    for i = 0 to o.requests - 1 do
      let k = conn_of.(i) in
      if k >= 0 && (not dead.(k)) && not (Hashtbl.mem replies i) then incr n
    done;
    !n
  in
  let deadline = Obs.now () +. o.timeout_s in
  while outstanding () > 0 && Obs.now () < deadline do
    Thread.delay 0.01
  done;
  (* Tear down: a full shutdown unblocks the receivers (read returns
     0) even if the daemon still holds its side open. *)
  Atomic.set teardown true;
  Array.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  Array.iter Thread.join receivers;
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    conns;
  let last_s = ref start_s in
  let ok = ref 0
  and degraded = ref 0
  and rejected = ref 0
  and errors = ref 0
  and conn_lost = ref 0 in
  let accepted = ref []
  and shed = ref [] in
  let ladder : (string, int) Hashtbl.t = Hashtbl.create 8 in
  for i = 0 to o.requests - 1 do
    match Hashtbl.find_opt replies i with
    | None -> if conn_of.(i) >= 0 && dead.(conn_of.(i)) then incr conn_lost
    | Some r ->
      if r.recv_s > !last_s then last_s := r.recv_s;
      let latency_ms = (r.recv_s -. send_s.(i)) *. 1000.0 in
      (match r.status with
       | "ok" | "degraded" ->
         if r.status = "ok" then incr ok else incr degraded;
         accepted := latency_ms :: !accepted;
         Option.iter
           (fun rung ->
             Hashtbl.replace ladder rung
               (1 + Option.value (Hashtbl.find_opt ladder rung) ~default:0))
           r.rung
       | "rejected" ->
         incr rejected;
         shed := latency_ms :: !shed
       | _ -> incr errors)
  done;
  summarize ~sent:!sent ~start_s ~last_s:!last_s ~conn_lost:!conn_lost
    ~retried:0 ~failed_over:0 ~hedge_wins:0
    ~counts:(!ok, !degraded, !rejected, !errors, !accepted, !shed, ladder)

(* ---------------- resilient path: the client runtime ----------------

   One [Client.t] over all endpoints; each request is a [Client.call]
   carrying [request_id] "q<i>" so server-side dedup makes its retries
   and hedges exactly-once per daemon. Calls run on their own
   systhreads at the scheduled arrival times (bounded by a counting
   semaphore), so one slow or retrying request never stalls the open
   loop. Instead of aborting on a connection loss, every request ends
   in a terminal outcome — and the summary reports how it got there:
   retried, failed over, hedge won. *)

let max_concurrent_calls = 256

let run_resilient targets o =
  let w = make_workload o in
  let cl =
    Client.create
      {
        endpoints = targets;
        retry = { Client.Retry.default with max_retries = o.retries };
        budget_ms = Some (o.timeout_s *. 1000.0);
        hedge_after_ms = o.hedge_after_ms;
        seed = o.seed;
      }
  in
  let rmutex = Mutex.create () in
  let ok = ref 0
  and degraded = ref 0
  and errors = ref 0
  and retried = ref 0
  and failed_over = ref 0
  and hedge_wins = ref 0 in
  let accepted = ref [] in
  let ladder : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let last_s = ref (Obs.now ()) in
  let running = ref 0 in
  let slots = Mutex.create () in
  let slot_free = Condition.create () in
  let call i =
    let outcome =
      Client.call cl
        ~request_id:(Printf.sprintf "q%d" i)
        (solve_fields o w i)
    in
    Mutex.lock rmutex;
    (match outcome with
     | Ok (out : Client.call_outcome) ->
       let r = out.Client.response in
       if r.Wire.Proto.status = "ok" then incr ok else incr degraded;
       accepted := out.Client.elapsed_ms :: !accepted;
       if out.Client.retries > 0 then incr retried;
       if out.Client.failovers > 0 then incr failed_over;
       if out.Client.hedge_won then incr hedge_wins;
       Option.iter
         (fun rung ->
           Hashtbl.replace ladder rung
             (1 + Option.value (Hashtbl.find_opt ladder rung) ~default:0))
         (rung_of r)
     | Error (e : Client.call_error) ->
       incr errors;
       if e.Client.err_retries > 0 then incr retried);
    let now = Obs.now () in
    if now > !last_s then last_s := now;
    Mutex.unlock rmutex;
    Mutex.lock slots;
    decr running;
    Condition.signal slot_free;
    Mutex.unlock slots
  in
  let start_s = Obs.now () in
  let threads = ref [] in
  let due = ref start_s in
  for i = 0 to o.requests - 1 do
    due := !due +. w.gaps.(i);
    let delay = !due -. Obs.now () in
    if delay > 0.0 then Thread.delay delay;
    Mutex.lock slots;
    while !running >= max_concurrent_calls do
      Condition.wait slot_free slots
    done;
    incr running;
    Mutex.unlock slots;
    threads := Thread.create call i :: !threads
  done;
  List.iter Thread.join !threads;
  Client.close cl;
  summarize ~sent:o.requests ~start_s ~last_s:!last_s ~conn_lost:0
    ~retried:!retried ~failed_over:!failed_over ~hedge_wins:!hedge_wins
    ~counts:(!ok, !degraded, 0, !errors, !accepted, [], ladder)

(* ---------------- dispatch ---------------- *)

let run_multi targets o =
  validate o;
  if targets = [] then invalid_arg "loadgen: no targets";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Resilience off and a single endpoint: the legacy path, whose wire
     behavior (frames, connection fan-out, no request_id) is
     byte-identical to the pre-client loadgen. *)
  if o.retries = 0 && o.hedge_after_ms = None && List.length targets = 1 then
    run_legacy (List.hd targets) o
  else run_resilient targets o

let run target o = run_multi [ target ] o
