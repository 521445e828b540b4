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
  seed : int;
  cache : bool;
  timeout_s : float;
  retries : int;  (** per-request retry budget; 0 = send once *)
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

(* The workload (instances, arrival gaps) and the request fields; the
   frame [id] and the [request_id] are the client runtime's. *)
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

(* Request ids are [<nonce>-q<i>]. The nonce (pid, run counter, start
   time in microseconds) differs between runs in one process and
   between processes, so a daemon's dedup table never answers a run
   from an earlier run's terminals. *)
let runs = Atomic.make 0

let run_nonce () =
  Printf.sprintf "%d.%d.%.0f" (Unix.getpid ())
    (Atomic.fetch_and_add runs 1)
    (Obs.now () *. 1e6)

(* One connect attempt per target before the first send. If none
   accepts, the first target's error is raised: a run that could reach
   nothing is a usage error, not [requests] failed calls. *)
let check_reachable targets =
  let probe t =
    match Client.connect_endpoint t with
    | fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None
    | exception (Unix.Unix_error _ as e) -> Some e
  in
  match List.map probe targets with
  | Some e :: rest when List.for_all Option.is_some rest -> raise e
  | _ -> ()

(* Each request is one [Client.call] on its own systhread, started at
   its scheduled arrival time (at most [max_concurrent_calls] at once),
   so a slow or retrying request never stalls the open loop. *)
let max_concurrent_calls = 256

let run_multi targets o =
  validate o;
  if targets = [] then invalid_arg "loadgen: no targets";
  check_reachable targets;
  let w = make_workload o in
  let nonce = run_nonce () in
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
  and rejected = ref 0
  and errors = ref 0
  and unanswered = ref 0
  and retried = ref 0
  and failed_over = ref 0
  and hedge_wins = ref 0 in
  let accepted = ref []
  and shed = ref [] in
  let ladder : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let start_s = Obs.now () in
  let last_s = ref start_s in
  let running = ref 0 in
  let slots = Mutex.create () in
  let slot_free = Condition.create () in
  let call i =
    let outcome =
      Client.call cl
        ~request_id:(Printf.sprintf "%s-q%d" nonce i)
        (solve_fields o w i)
    in
    Mutex.lock rmutex;
    let answered =
      match outcome with
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
          (rung_of r);
        true
      | Error (e : Client.call_error) ->
        if e.Client.err_retries > 0 then incr retried;
        if e.Client.err_rejected then begin
          incr rejected;
          shed := e.Client.err_elapsed_ms :: !shed;
          true
        end
        else if e.Client.kind = Client.Budget_exhausted then begin
          incr unanswered;
          false
        end
        else begin
          incr errors;
          true
        end
    in
    (if answered then
       let now = Obs.now () in
       if now > !last_s then last_s := now);
    Mutex.unlock rmutex;
    Mutex.lock slots;
    decr running;
    Condition.signal slot_free;
    Mutex.unlock slots
  in
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
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let duration_s = Float.max (!last_s -. start_s) 1e-9 in
  {
    sent = o.requests;
    ok = !ok;
    degraded = !degraded;
    rejected = !rejected;
    errors = !errors;
    unanswered = !unanswered;
    retried = !retried;
    failed_over = !failed_over;
    hedge_wins = !hedge_wins;
    duration_s;
    throughput = float_of_int (o.requests - !unanswered) /. duration_s;
    accepted_ms = sorted !accepted;
    rejected_ms = sorted !shed;
    ladder =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ladder []);
  }

let run target o = run_multi [ target ] o
