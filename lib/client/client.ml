(* Resilient client runtime for the JSONL protocol.

   One [t] holds N endpoints. Each endpoint gets at most one pipelined
   connection, opened lazily and reopened on the next call after a
   failure; a dedicated reader systhread demultiplexes response lines
   back to waiting callers by frame id. On top of that sit the three
   resilience mechanisms this module exists for:

   - deadline-aware retries: capped exponential backoff with
     decorrelated jitter ([Retry]), honoring the daemon's
     [retry_after_ms] hints, treating rejected:overload,
     rejected:draining and any connection failure as retryable, and
     never sleeping past the caller's end-to-end budget — budget
     exhaustion surfaces the best-so-far error instead of hanging;

   - failover: endpoints are ranked by [Health] score before every
     attempt, so a dead or draining replica slides to the back of the
     rotation and a connection-type failure retries on the next-best
     endpoint immediately (no backoff — the replacement is not the one
     that failed);

   - hedging: optionally, when no answer has arrived after
     [hedge_after_ms], the same request (same [request_id], fresh frame
     id) is fired at the next-best endpoint and the first terminal
     answer wins. The loser is cancelled client-side — its frame id is
     forgotten, its eventual response discarded — and the server-side
     idempotency table makes the duplicate submission harmless.

   Thread-safe: any number of threads may [call] concurrently. *)

module Json = Wire.Json
module Proto = Wire.Proto
module Retry = Retry
module Health = Health
module Transport = Transport

type endpoint = Transport.endpoint = Tcp of int | Unix_path of string

let endpoint_to_string = function
  | Tcp p -> Printf.sprintf "tcp:%d" p
  | Unix_path p -> "unix:" ^ p

(* "8080" and "tcp:8080" are loopback TCP; "unix:/p" and any other
   string are Unix-socket paths, kept as typed. *)
let endpoint_of_string s =
  let s = String.trim s in
  let in_range p = p >= 0 && p <= 65535 in
  match Wire.Spec.(after "tcp:" s, after "unix:" s, int s) with
  | Some rest, _, _ ->
    (match Wire.Spec.int rest with
     | Some p when in_range p -> Ok (Tcp p)
     | _ -> Error (Printf.sprintf "endpoint %S: bad tcp port" s))
  | _, Some "", _ -> Error "endpoint \"unix:\" has no path"
  | _, Some path, _ -> Ok (Unix_path path)
  | _, _, Some p when in_range p -> Ok (Tcp p)
  | _, _, Some _ -> Error (Printf.sprintf "endpoint %S: port out of range" s)
  | _ -> if s = "" then Error "empty endpoint" else Ok (Unix_path s)

let endpoints_to_string eps =
  String.concat "," (List.map endpoint_to_string eps)

let endpoints_of_string s =
  let parts = Wire.Spec.parts ~keep_case:true ',' s in
  if List.for_all (( = ) "") parts then Error "no endpoints given"
  else Wire.Spec.all endpoint_of_string parts

(* ---------------- configuration ---------------- *)

type config = {
  endpoints : endpoint list;
  retry : Retry.policy;
  budget_ms : float option;  (** end-to-end budget per [call] *)
  hedge_after_ms : float option;
  seed : int;  (** jitter PRNG seed (reproducible tests) *)
}

let default_config endpoints =
  {
    endpoints;
    retry = Retry.default;
    budget_ms = Some 30_000.0;
    hedge_after_ms = None;
    seed = 1;
  }

(* ---------------- connections ---------------- *)

type answer = Line of string | Lost of string

(* One per call attempt round; tag 0 is the primary send, tag 1 the
   hedge. Reader threads append, the calling thread polls. *)
type waiter = { wmutex : Mutex.t; mutable arrived : (int * answer) list }

type conn = {
  fd : Unix.file_descr;
  tmutex : Mutex.t;  (* guards [waiting] and [closed] *)
  wrmutex : Mutex.t;  (* serializes writes to [fd] *)
  waiting : (string, waiter * int) Hashtbl.t;
  mutable closed : bool;
}

type ep = {
  endpoint : endpoint;
  emutex : Mutex.t;  (* guards [conn] and [health] *)
  mutable conn : conn option;
  health : Health.t;
}

type t = {
  cfg : config;
  eps : ep array;
  ids : int Atomic.t;
  draws : int Atomic.t;  (* retry-jitter draws made so far *)
  rr : int Atomic.t;  (* near-tie rotation between healthy replicas *)
}

let now = Obs.now

(* Draw k is output k of the SplitMix64 stream keyed by the seed: one
   atomic increment numbers it, so any calling thread may draw. *)
let jitter t =
  Prob.Rng.splitmix64_unit
    (Int64.of_int ((t.cfg.seed * 2) + 1))
    (1 + Atomic.fetch_and_add t.draws 1)

let validate cfg =
  if cfg.endpoints = [] then invalid_arg "Client: endpoints must be non-empty";
  Retry.validate cfg.retry;
  (match cfg.budget_ms with
   | Some b when not (Float.is_finite b) || b <= 0.0 ->
     invalid_arg "Client: budget_ms must be positive and finite"
   | _ -> ());
  match cfg.hedge_after_ms with
  | Some h when not (Float.is_finite h) || h < 0.0 ->
    invalid_arg "Client: hedge_after_ms must be non-negative and finite"
  | _ -> ()

let create cfg =
  validate cfg;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    cfg;
    eps =
      Array.of_list
        (List.map
           (fun endpoint ->
             {
               endpoint;
               emutex = Mutex.create ();
               conn = None;
               health = Health.create ();
             })
           cfg.endpoints);
    ids = Atomic.make 0;
    draws = Atomic.make 0;
    rr = Atomic.make 0;
  }

let push w tag ans =
  Mutex.lock w.wmutex;
  w.arrived <- (tag, ans) :: w.arrived;
  Mutex.unlock w.wmutex

(* Fail every registered waiter and shut the socket down. The reader
   systhread is the fd's only closer: everyone else just [shutdown]s,
   which pops the reader out of its blocking read — no fd-reuse race. *)
let conn_kill c reason =
  Mutex.lock c.tmutex;
  if c.closed then Mutex.unlock c.tmutex
  else begin
    c.closed <- true;
    let ws = Hashtbl.fold (fun _ wt acc -> wt :: acc) c.waiting [] in
    Hashtbl.reset c.waiting;
    Mutex.unlock c.tmutex;
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    List.iter (fun (w, tag) -> push w tag (Lost reason)) ws
  end

let route c line =
  match Json.parse line with
  | Error _ ->
    if Obs.on () then Obs.count "client_bad_frames"
  | Ok json ->
    (match Proto.frame_id json with
     | None -> if Obs.on () then Obs.count "client_bad_frames"
     | Some id ->
       Mutex.lock c.tmutex;
       let hit = Hashtbl.find_opt c.waiting id in
       if hit <> None then Hashtbl.remove c.waiting id;
       Mutex.unlock c.tmutex;
       (match hit with
        | Some (w, tag) -> push w tag (Line line)
        | None ->
          (* a cancelled hedge loser or an abandoned attempt: expected *)
          if Obs.on () then Obs.count "client_orphan_responses"))

(* An oversized response cannot be routed (its frame id is somewhere
   in the discarded bytes), so it costs the connection: every pending
   call on it is [Lost] and retries or fails over. *)
let reader c =
  Transport.read_frames c.fd (route c) ~on_oversize:(fun () ->
      conn_kill c
        (Printf.sprintf "response frame exceeds %d bytes"
           Transport.max_frame_bytes));
  conn_kill c "connection closed by server";
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let connect_endpoint endpoint = Transport.socket endpoint Unix.connect

(* Lazy (re)connect: a previous failure leaves [conn] dead and the next
   caller replaces it. Loopback/Unix connects resolve immediately
   (established or refused), so holding the endpoint lock is fine. *)
let ensure_conn ep =
  Mutex.lock ep.emutex;
  match ep.conn with
  | Some c when not c.closed ->
    Mutex.unlock ep.emutex;
    Ok c
  | _ -> (
    match connect_endpoint ep.endpoint with
    | fd ->
      let c =
        {
          fd;
          tmutex = Mutex.create ();
          wrmutex = Mutex.create ();
          waiting = Hashtbl.create 16;
          closed = false;
        }
      in
      ignore (Thread.create reader c);
      ep.conn <- Some c;
      if Obs.on () then Obs.count "client_connects";
      Mutex.unlock ep.emutex;
      Ok c
    | exception Unix.Unix_error (e, _, _) ->
      Mutex.unlock ep.emutex;
      Error
        (Printf.sprintf "connect %s: %s"
           (endpoint_to_string ep.endpoint)
           (Unix.error_message e)))

let note ep f = Mutex.protect ep.emutex (fun () -> f ep.health)
let note_fail ep = note ep (Health.note_fail ~now_s:(now ()))
let note_draining ep = note ep (Health.note_draining ~now_s:(now ()))
let note_shed ep = note ep (Health.note_shed ~now_s:(now ()))
let note_ok ep ~latency_ms = note ep (Health.note_ok ~latency_ms)

(* Send one frame on one endpoint. All failure modes surface as a
   [Lost] answer to the waiter (possibly via [conn_kill] failing every
   pending call on that connection); the caller only ever polls. The
   write is bounded by the call's [deadline]: a peer that stops reading
   cannot hold the call past its budget. *)
let issue t ep w tag ~issued ~deadline ~fields ~request_id =
  let id = "c" ^ string_of_int (Atomic.fetch_and_add t.ids 1) in
  let all = ("id", Json.Str id) :: fields in
  let all =
    match request_id with
    | Some r -> all @ [ ("request_id", Json.Str r) ]
    | None -> all
  in
  let line = Json.to_string (Json.Obj all) ^ "\n" in
  match ensure_conn ep with
  | Error msg ->
    note_fail ep;
    push w tag (Lost msg)
  | Ok c ->
    let registered =
      Mutex.lock c.tmutex;
      let ok = not c.closed in
      if ok then Hashtbl.replace c.waiting id (w, tag);
      Mutex.unlock c.tmutex;
      ok
    in
    if not registered then begin
      note_fail ep;
      push w tag (Lost "connection closed")
    end
    else begin
      issued := (c, id) :: !issued;
      Mutex.lock c.wrmutex;
      (match Transport.write_all ?deadline c.fd line with
       | () -> Mutex.unlock c.wrmutex
       | exception (Unix.Unix_error _ | Sys_error _ | Transport.Write_timeout)
         ->
         Mutex.unlock c.wrmutex;
         note_fail ep;
         (* a torn frame desyncs the stream: fail every pending waiter
            on this conn, ours included *)
         conn_kill c "write failed")
    end

(* Endpoints ordered best-first. Two replicas whose scores are within
   a small band are considered equally healthy and alternated, so a
   multi-endpoint client spreads load instead of pinning the replica
   that happened to answer its first call fastest. *)
let ranked t =
  let nw = now () in
  let arr =
    Array.map
      (fun ep ->
        Mutex.lock ep.emutex;
        let s = Health.score ep.health ~now_s:nw in
        Mutex.unlock ep.emutex;
        (s, ep))
      t.eps
  in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) arr;
  (if Array.length arr >= 2 then
     let s0, e0 = arr.(0) and s1, e1 = arr.(1) in
     if Float.abs (s0 -. s1) <= 25.0 && Atomic.fetch_and_add t.rr 1 land 1 = 1
     then begin
       arr.(0) <- (s1, e1);
       arr.(1) <- (s0, e0)
     end);
  Array.map snd arr

(* ---------------- the call state machine ---------------- *)

type call_outcome = {
  response : Proto.response;
  raw : string;  (** the winning response line, verbatim *)
  endpoint : endpoint;  (** who answered *)
  attempts : int;  (** frames sent, hedges included *)
  retries : int;
  failovers : int;  (** attempts that moved to a different endpoint *)
  hedges : int;
  hedge_won : bool;
  elapsed_ms : float;
}

type failure_kind = Budget_exhausted | Retries_exhausted | Fatal

type call_error = {
  kind : failure_kind;
  message : string;  (** best-so-far: the last concrete failure seen *)
  err_attempts : int;
  err_retries : int;
  err_failovers : int;
  err_hedges : int;
  err_elapsed_ms : float;
  err_rejected : bool;
      (** the final attempt was answered by a [rejected] frame (either
          copy, when hedged): the daemon answered and shed the call *)
}

let failure_kind_to_string = function
  | Budget_exhausted -> "budget_exhausted"
  | Retries_exhausted -> "retries_exhausted"
  | Fatal -> "fatal"

let poll_interval_s = 0.001

(* [fields] is the request frame minus [id] (fresh per attempt, owned
   here) and minus [request_id] (passed separately so hedges and
   retries share it). *)
let call t ?request_id fields =
  let start_s = now () in
  let deadline =
    Option.map (fun b -> start_s +. (b /. 1000.0)) t.cfg.budget_ms
  in
  let policy = t.cfg.retry in
  let issued = ref [] in
  let attempts = ref 0
  and retries = ref 0
  and failovers = ref 0
  and hedges = ref 0 in
  let last_err = ref "no attempt made" in
  let prev_delay = ref policy.Retry.base_ms in
  let last_primary = ref None in
  let cleanup () =
    List.iter
      (fun (c, id) ->
        Mutex.lock c.tmutex;
        Hashtbl.remove c.waiting id;
        Mutex.unlock c.tmutex)
      !issued
  in
  let fail ?(rejected = false) kind message =
    cleanup ();
    Error
      {
        kind;
        message;
        err_attempts = !attempts;
        err_retries = !retries;
        err_failovers = !failovers;
        err_hedges = !hedges;
        err_elapsed_ms = (now () -. start_s) *. 1000.0;
        err_rejected = rejected;
      }
  in
  let succeed ep tag response raw =
    cleanup ();
    let elapsed_ms = (now () -. start_s) *. 1000.0 in
    note_ok ep ~latency_ms:elapsed_ms;
    if tag = 1 && Obs.on () then Obs.count "client_hedges_won";
    Ok
      {
        response;
        raw;
        endpoint = ep.endpoint;
        attempts = !attempts;
        retries = !retries;
        failovers = !failovers;
        hedges = !hedges;
        hedge_won = tag = 1;
        elapsed_ms;
      }
  in
  let rec attempt round =
    let order = ranked t in
    let primary = order.(0) in
    (match !last_primary with
     | Some e when e <> primary.endpoint ->
       incr failovers;
       if Obs.on () then Obs.count "client_failovers"
     | _ -> ());
    last_primary := Some primary.endpoint;
    let w = { wmutex = Mutex.create (); arrived = [] } in
    let tag_eps = [| primary; primary |] in
    incr attempts;
    issue t primary w 0 ~issued ~deadline ~fields ~request_id;
    let hedge_at =
      Option.map (fun h -> now () +. (h /. 1000.0)) t.cfg.hedge_after_ms
    in
    let hedged = ref false in
    let outstanding = ref 1 in
    let resolved = [| false; false |] in
    (* Attempt-local failure summary: the smallest server hint seen
       (earliest moment anyone promised to be ready) and whether any
       loss was connection-shaped (fast failover, no backoff). *)
    let hint = ref None in
    let conn_failure = ref false in
    let rejected = ref false in
    let wait_result =
      let rec wait () =
        let nw = now () in
        if (match deadline with Some d -> nw >= d | None -> false) then
          `Deadline
        else begin
          Mutex.lock w.wmutex;
          let got = List.rev w.arrived in
          w.arrived <- [];
          Mutex.unlock w.wmutex;
          let decide = ref `Pending in
          List.iter
            (fun (tag, ans) ->
              if not resolved.(tag) && !decide = `Pending then begin
                resolved.(tag) <- true;
                decr outstanding;
                match ans with
                | Lost msg ->
                  last_err :=
                    Printf.sprintf "%s: %s"
                      (endpoint_to_string tag_eps.(tag).endpoint)
                      msg;
                  conn_failure := true;
                  note_fail tag_eps.(tag)
                | Line raw -> (
                  match Proto.decode_response raw with
                  | Error msg ->
                    last_err := "undecodable response: " ^ msg;
                    decide := `Fatal !last_err
                  | Ok r -> (
                    match Retry.classify r with
                    | Retry.Success -> decide := `Win (tag, r, raw)
                    | Retry.Fatal msg ->
                      last_err := msg;
                      decide := `Fatal msg
                    | Retry.Retryable { hint_ms; draining } ->
                      last_err :=
                        Printf.sprintf "%s: rejected (%s)"
                          (endpoint_to_string tag_eps.(tag).endpoint)
                          (Option.value r.Proto.reason ~default:"?");
                      rejected := true;
                      (match hint_ms with
                       | Some h ->
                         hint :=
                           Some
                             (match !hint with
                              | Some prev -> Float.min prev h
                              | None -> h)
                       | None -> ());
                      if draining then note_draining tag_eps.(tag)
                      else note_shed tag_eps.(tag)))
              end)
            got;
          match !decide with
          | (`Win _ | `Fatal _) as d -> d
          | `Pending ->
            if !outstanding = 0 then `Failed
            else begin
              (match hedge_at with
               | Some h when (not !hedged) && nw >= h ->
                 hedged := true;
                 let secondary =
                   let found = ref None in
                   Array.iter
                     (fun (ep : ep) ->
                       if !found = None && ep.endpoint <> primary.endpoint
                       then found := Some ep)
                     order;
                   (* single endpoint: hedge on it anyway — in-flight
                      dedup on the server makes it safe, and it still
                      covers a response lost in transit *)
                   Option.value !found ~default:primary
                 in
                 tag_eps.(1) <- secondary;
                 incr outstanding;
                 incr attempts;
                 incr hedges;
                 if Obs.on () then Obs.count "client_hedges";
                 issue t secondary w 1 ~issued ~deadline ~fields ~request_id
               | _ -> ());
              Thread.delay poll_interval_s;
              wait ()
            end
        end
      in
      wait ()
    in
    match wait_result with
    | `Win (tag, r, raw) -> succeed tag_eps.(tag) tag r raw
    | `Fatal msg -> fail Fatal msg
    | `Deadline ->
      fail Budget_exhausted
        (if !attempts = 0 then "budget exhausted before any attempt"
         else
           Printf.sprintf "budget exhausted awaiting a response (last: %s)"
             !last_err)
    | `Failed ->
      if round >= policy.Retry.max_retries then
        fail ~rejected:!rejected Retries_exhausted !last_err
      else begin
        incr retries;
        if Obs.on () then Obs.count "client_retries";
        (* Connection failure with a different healthy endpoint up
           next: fail over immediately, the backoff curve is for the
           endpoint that failed, not its replacement. Overload and
           draining rejects always back off (hint-dominated). *)
        let next = (ranked t).(0) in
        let fast = !conn_failure && !hint = None
                   && next.endpoint <> primary.endpoint in
        if not fast then begin
          let d =
            Retry.next_delay_ms policy ~u:(jitter t)
              ~prev_ms:!prev_delay ~hint_ms:!hint
          in
          prev_delay := d;
          match deadline with
          | Some dl when now () +. (d /. 1000.0) >= dl ->
            (* sleeping would blow the budget: surface best-so-far *)
            fail ~rejected:!rejected Budget_exhausted
              (Printf.sprintf "budget exhausted before retry %d (last: %s)"
                 (round + 1) !last_err)
          | _ ->
            if Obs.on () then
              Obs.observe ~buckets:Obs.latency_ms_buckets "client_backoff_ms"
                d;
            Thread.delay (d /. 1000.0);
            attempt (round + 1)
        end
        else attempt (round + 1)
      end
  in
  attempt 0

(* ---------------- convenience ---------------- *)

let close t =
  Array.iter
    (fun ep ->
      Mutex.lock ep.emutex;
      let c = ep.conn in
      ep.conn <- None;
      Mutex.unlock ep.emutex;
      Option.iter (fun c -> conn_kill c "client closed") c)
    t.eps
