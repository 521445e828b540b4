(* The resilient client, in pieces and end to end.

   The pure retry core is pinned directly: decorrelated-jitter bounds
   at the [u] extremes, clamping of out-of-range inputs, and the
   dominance of a server [retry_after_ms] hint over the computed
   curve. Response classification and the forward-compatibility
   contract (unknown fields in any frame type are ignored) are pinned
   against hand-built frames.

   The call state machine is exercised against tiny in-test JSONL
   servers whose handlers script the failure: a dead endpoint forces
   fast failover, an always-rejecting endpoint forces budget/retry
   exhaustion with the best-so-far error surfaced, and a slow-vs-fast
   pair makes the hedge win — with both servers' frame logs proving
   exactly one request went to each and both carried the same
   request_id. *)

module C = Client
module J = Client.Json
module P = Client.Proto
module R = Client.Retry

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- retry: delay bounds ---------------- *)

let test_delay_bounds () =
  let p = { R.max_retries = 3; base_ms = 10.0; cap_ms = 2000.0 } in
  let eps = 1e-9 in
  List.iter
    (fun prev ->
      (* the clamped recurrence the implementation promises *)
      let prev' = Float.max p.R.base_ms (Float.min p.R.cap_ms prev) in
      let hi = Float.min p.R.cap_ms (3.0 *. prev') in
      let lo = Float.min p.R.base_ms hi in
      List.iter
        (fun u ->
          let d = R.next_delay_ms p ~u ~prev_ms:prev ~hint_ms:None in
          check bool_t
            (Printf.sprintf "delay in [lo, hi] (prev %.1f, u %.2f)" prev u)
            true
            (d >= lo -. eps && d <= hi +. eps);
          check bool_t "delay never exceeds cap" true (d <= p.R.cap_ms +. eps))
        [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
      (* the extremes are exact *)
      check (Alcotest.float eps) "u=0 is the floor" lo
        (R.next_delay_ms p ~u:0.0 ~prev_ms:prev ~hint_ms:None);
      check (Alcotest.float eps) "u=1 is the ceiling" hi
        (R.next_delay_ms p ~u:1.0 ~prev_ms:prev ~hint_ms:None))
    [ 0.5; 10.0; 100.0; 2000.0; 5000.0 ];
  (* out-of-range u is clamped, not propagated *)
  check (Alcotest.float eps) "u below 0 clamps to the floor"
    (R.next_delay_ms p ~u:0.0 ~prev_ms:10.0 ~hint_ms:None)
    (R.next_delay_ms p ~u:(-3.0) ~prev_ms:10.0 ~hint_ms:None);
  check (Alcotest.float eps) "u above 1 clamps to the ceiling"
    (R.next_delay_ms p ~u:1.0 ~prev_ms:10.0 ~hint_ms:None)
    (R.next_delay_ms p ~u:7.0 ~prev_ms:10.0 ~hint_ms:None)

let test_hint_dominates () =
  let p = { R.max_retries = 3; base_ms = 10.0; cap_ms = 2000.0 } in
  let eps = 1e-9 in
  (* a hint above the computed range wins outright — even above the
     cap: the daemon's drain estimate beats the client-side curve *)
  check (Alcotest.float eps) "large hint is the delay" 5000.0
    (R.next_delay_ms p ~u:1.0 ~prev_ms:2000.0 ~hint_ms:(Some 5000.0));
  (* a hint below the computed delay leaves the jittered value alone *)
  let computed = R.next_delay_ms p ~u:0.5 ~prev_ms:100.0 ~hint_ms:None in
  check (Alcotest.float eps) "small hint does not lower the delay" computed
    (R.next_delay_ms p ~u:0.5 ~prev_ms:100.0 ~hint_ms:(Some 1.0));
  (* degenerate hints are ignored *)
  List.iter
    (fun h ->
      check (Alcotest.float eps) "degenerate hint ignored" computed
        (R.next_delay_ms p ~u:0.5 ~prev_ms:100.0 ~hint_ms:(Some h)))
    [ 0.0; -5.0; Float.nan; Float.infinity ]

(* ---------------- retry: classification ---------------- *)

let decode_exn line =
  match P.decode_response line with
  | Ok r -> r
  | Error e -> Alcotest.failf "decode %S failed: %s" line e

let test_classify () =
  let verdict line = R.classify (decode_exn line) in
  (match verdict "{\"id\": \"x\", \"status\": \"ok\"}" with
   | R.Success -> ()
   | _ -> Alcotest.fail "ok must classify Success");
  (match verdict "{\"id\": \"x\", \"status\": \"degraded\"}" with
   | R.Success -> ()
   | _ -> Alcotest.fail "degraded must classify Success");
  (match
     verdict
       "{\"id\": \"x\", \"status\": \"rejected\", \"reason\": \
        \"overload\", \"retry_after_ms\": 40}"
   with
   | R.Retryable { hint_ms = Some h; draining = false } ->
     check (Alcotest.float 1e-9) "hint carried" 40.0 h
   | _ -> Alcotest.fail "overload reject must be Retryable with hint");
  (match
     verdict "{\"id\": \"x\", \"status\": \"rejected\", \"reason\": \
              \"draining\"}"
   with
   | R.Retryable { hint_ms = None; draining = true } -> ()
   | _ -> Alcotest.fail "draining reject must be Retryable draining");
  (match verdict "{\"id\": \"x\", \"status\": \"error\", \"error\": \"boom\"}"
   with
   | R.Fatal m -> check string_t "error message surfaced" "boom" m
   | _ -> Alcotest.fail "error must classify Fatal");
  (match verdict "{\"id\": \"x\", \"status\": \"quantum\"}" with
   | R.Fatal _ -> ()
   | _ -> Alcotest.fail "unknown status must classify Fatal, not retry")

(* ---------------- proto: unknown fields are ignored ---------------- *)

(* Forward compatibility regression (a newer daemon may add fields to
   any frame): every known frame shape still decodes with extra
   members of every JSON type spliced in. *)
let test_decode_ignores_unknown_fields () =
  let extras =
    ", \"x_future\": {\"a\": [1, 2]}, \"shard\": 7, \"trace\": \"t-9\", \
     \"flag\": true, \"hole\": null"
  in
  let inject line =
    (* line is "{...}": splice the extras before the closing brace *)
    String.sub line 0 (String.length line - 1) ^ extras ^ "}"
  in
  let ok =
    inject
      "{\"id\": \"r1\", \"status\": \"ok\", \"objective\": 3.5, \
       \"cache\": \"hit\"}"
  in
  let r = decode_exn ok in
  check string_t "ok status survives extras" "ok" r.P.status;
  check bool_t "rid survives extras" true (r.P.rid = Some "r1");
  check bool_t "cache hit survives extras" true r.P.cache_hit;
  let degraded = inject "{\"id\": \"r2\", \"status\": \"degraded\"}" in
  check string_t "degraded survives extras" "degraded"
    (decode_exn degraded).P.status;
  let rejected =
    inject
      "{\"id\": \"r3\", \"status\": \"rejected\", \"reason\": \
       \"overload\", \"retry_after_ms\": 25}"
  in
  let r = decode_exn rejected in
  check bool_t "reason survives extras" true (r.P.reason = Some "overload");
  check bool_t "retry_after survives extras" true
    (r.P.retry_after_ms = Some 25);
  let error =
    inject "{\"id\": \"r4\", \"status\": \"error\", \"error\": \"bad\"}"
  in
  let r = decode_exn error in
  check bool_t "error cause survives extras" true (r.P.error = Some "bad");
  (* dedup marker, and a numeric frame id, both decode *)
  let dedup =
    inject "{\"id\": 7, \"status\": \"ok\", \"dedup\": \"hit\"}"
  in
  let r = decode_exn dedup in
  check bool_t "dedup hit survives extras" true r.P.dedup_hit;
  check bool_t "numeric id accepted" true (r.P.rid = Some "7")

(* ---------------- in-test JSONL servers ---------------- *)

(* A scripted endpoint: [handler frame] returns the response line
   (None = swallow the request). Every received frame is logged so
   tests can assert exactly what reached the wire. *)
(* The accept thread is the listening socket's only closer, and
   [stop_fake] joins it: a stale thread can then never accept on a
   descriptor number that the next test's [start_fake] has reused.
   [stop_fake] only shuts [lfd] down, which wakes the thread's
   [select]. *)
type fake = {
  port : int;
  lfd : Unix.file_descr;
  fstop : bool Atomic.t;
  flog : J.t list ref;
  fmutex : Mutex.t;
  acceptor : Thread.t;
}

let fake_frames f =
  Mutex.lock f.fmutex;
  let l = List.rev !(f.flog) in
  Mutex.unlock f.fmutex;
  l

let start_fake handler =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let fstop = Atomic.make false and flog = ref [] and fmutex = Mutex.create () in
  let serve_conn cfd =
    let c = Testutil.frame_conn cfd in
    let rec loop () =
      match Testutil.next_frame c ~deadline:(Unix.gettimeofday () +. 0.1) with
      | Some line ->
        (match J.parse line with
         | Ok frame -> (
           Mutex.lock fmutex;
           flog := frame :: !flog;
           Mutex.unlock fmutex;
           match handler frame with
           | Some resp -> (
             try Testutil.send_frame c resp with Unix.Unix_error _ -> ())
           | None -> ())
         | Error _ -> ());
        loop ()
      | None -> if c.eof || Atomic.get fstop then () else loop ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ();
    Testutil.frame_close c
  in
  let acceptor =
    Thread.create
      (fun () ->
        let rec loop () =
          if not (Atomic.get fstop) then (
            match Unix.select [ lfd ] [] [] 0.1 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            | [], _, _ -> loop ()
            | _ -> (
              match Unix.accept ~cloexec:true lfd with
              | cfd, _ ->
                ignore (Thread.create serve_conn cfd);
                loop ()
              | exception Unix.Unix_error _ -> loop ()))
        in
        loop ();
        Unix.close lfd)
      ()
  in
  { port; lfd; fstop; flog; fmutex; acceptor }

let stop_fake f =
  Atomic.set f.fstop true;
  (try Unix.shutdown f.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join f.acceptor

let frame_id frame =
  match Option.bind (J.member "id" frame) J.to_str with
  | Some id -> id
  | None -> Alcotest.fail "fake server: frame without id"

let frame_request_id frame = Option.bind (J.member "request_id" frame) J.to_str

let respond_with frame fields =
  Some
    (J.to_string (J.Obj (("id", J.Str (frame_id frame)) :: fields)))

let ok_response ?(delay = 0.0) frame =
  if delay > 0.0 then Thread.delay delay;
  respond_with frame [ ("status", J.Str "ok"); ("objective", J.Num 1.0) ]

let reject_response ?retry_after_ms frame =
  respond_with frame
    ([ ("status", J.Str "rejected"); ("reason", J.Str "overload") ]
    @
    match retry_after_ms with
    | Some ms -> [ ("retry_after_ms", J.Num (float_of_int ms)) ]
    | None -> [])

let with_client cfg f =
  let t = C.create cfg in
  Fun.protect ~finally:(fun () -> C.close t) (fun () -> f t)

let ping_fields = [ ("op", J.Str "health") ]

(* ---------------- call: failover ---------------- *)

let test_failover_dead_endpoint () =
  let live = start_fake (fun frame -> ok_response frame) in
  Fun.protect ~finally:(fun () -> stop_fake live) @@ fun () ->
  let cfg =
    {
      (C.default_config [ C.Tcp (Testutil.dead_port ()); C.Tcp live.port ]) with
      budget_ms = Some 5000.0;
      seed = 7;
    }
  in
  with_client cfg @@ fun t ->
  match C.call t ~request_id:"f1" ping_fields with
  | Error e -> Alcotest.failf "call failed: %s" e.C.message
  | Ok o ->
    check string_t "answered ok" "ok" o.C.response.P.status;
    check bool_t "answered by the live endpoint" true
      (o.C.endpoint = C.Tcp live.port);
    check bool_t "recorded a failover" true (o.C.failovers >= 1);
    check bool_t "recorded a retry" true (o.C.retries >= 1);
    (* the dead endpoint is now scored down: a second call goes
       straight to the live one, no retry *)
    (match C.call t ~request_id:"f2" ping_fields with
     | Ok o2 -> check int_t "second call needs no retry" 0 o2.C.retries
     | Error e -> Alcotest.failf "second call failed: %s" e.C.message)

(* ---------------- call: budget exhaustion ---------------- *)

let test_budget_exhaustion_best_so_far () =
  (* every attempt is rejected with a 200 ms hint; an 80 ms budget
     cannot honor that sleep, so the call must fail fast with
     Budget_exhausted and surface the reject as the best-so-far *)
  let f = start_fake (fun frame -> reject_response ~retry_after_ms:200 frame) in
  Fun.protect ~finally:(fun () -> stop_fake f) @@ fun () ->
  let cfg =
    {
      (C.default_config [ C.Tcp f.port ]) with
      budget_ms = Some 80.0;
      seed = 7;
    }
  in
  with_client cfg @@ fun t ->
  let t0 = Unix.gettimeofday () in
  match C.call t ~request_id:"b1" ping_fields with
  | Ok _ -> Alcotest.fail "call against an always-rejecting server succeeded"
  | Error e ->
    let took_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    check string_t "kind is budget_exhausted" "budget_exhausted"
      (C.failure_kind_to_string e.C.kind);
    check bool_t "best-so-far error names the reject" true
      (let m = e.C.message in
       let has needle =
         let nl = String.length needle and ml = String.length m in
         let rec go i =
           i + nl <= ml && (String.sub m i nl = needle || go (i + 1))
         in
         go 0
       in
       has "rejected");
    check bool_t "failed without sleeping through the hint" true
      (took_ms < 1000.0)

(* ---------------- call: retries exhausted ---------------- *)

let test_retries_exhausted () =
  let f = start_fake (fun frame -> reject_response frame) in
  Fun.protect ~finally:(fun () -> stop_fake f) @@ fun () ->
  let cfg =
    {
      (C.default_config [ C.Tcp f.port ]) with
      retry = { R.max_retries = 2; base_ms = 1.0; cap_ms = 5.0 };
      budget_ms = Some 5000.0;
      seed = 7;
    }
  in
  with_client cfg @@ fun t ->
  match C.call t ~request_id:"r1" ping_fields with
  | Ok _ -> Alcotest.fail "call against an always-rejecting server succeeded"
  | Error e ->
    check string_t "kind is retries_exhausted" "retries_exhausted"
      (C.failure_kind_to_string e.C.kind);
    check int_t "retried exactly max_retries times" 2 e.C.err_retries;
    check int_t "one attempt per round" 3 e.C.err_attempts;
    check int_t "server saw every attempt" 3 (List.length (fake_frames f))

(* ---------------- call: a shed is not a failure ---------------- *)

(* One endpoint is down; the other sheds twice, then answers. A shed
   proves its endpoint is up, so the retries stay on it instead of
   swinging back to the refused connect. The sheds come 100 ms after
   the frame, as from a busy daemon, so the two endpoints' scores are
   not near-tied when the retry ranks them. *)
let test_shed_outranks_dead_endpoint () =
  let seen = Atomic.make 0 in
  let f =
    start_fake (fun frame ->
        if Atomic.fetch_and_add seen 1 < 2 then begin
          Thread.delay 0.1;
          reject_response ~retry_after_ms:20 frame
        end
        else ok_response frame)
  in
  Fun.protect ~finally:(fun () -> stop_fake f) @@ fun () ->
  let dead = Filename.temp_file "confcall_dead" ".sock" in
  Sys.remove dead;
  let cfg =
    {
      (C.default_config [ C.Unix_path dead; C.Tcp f.port ]) with
      retry = { R.default with max_retries = 4 };
      budget_ms = Some 5000.0;
      seed = 7;
    }
  in
  with_client cfg @@ fun t ->
  match C.call t ~request_id:"s1" ping_fields with
  | Error e -> Alcotest.failf "call failed: %s" e.C.message
  | Ok o ->
    check string_t "answered ok" "ok" o.C.response.P.status;
    check bool_t "answered by the shedding endpoint" true
      (o.C.endpoint = C.Tcp f.port);
    check int_t "two sheds, then the answer" 3 (List.length (fake_frames f));
    check int_t "the dead endpoint is tried once" 4 o.C.attempts

(* ---------------- call: hedging ---------------- *)

let test_hedge_exactly_one_answer () =
  (* endpoint A answers after 300 ms, endpoint B immediately; with a
     40 ms hedge delay the hedge must win, and each server must have
     seen exactly one frame — same request_id, distinct frame ids *)
  let slow = start_fake (fun frame -> ok_response ~delay:0.3 frame) in
  let fast = start_fake (fun frame -> ok_response frame) in
  Fun.protect
    ~finally:(fun () ->
      stop_fake slow;
      stop_fake fast)
  @@ fun () ->
  let cfg =
    {
      (C.default_config [ C.Tcp slow.port; C.Tcp fast.port ]) with
      budget_ms = Some 5000.0;
      hedge_after_ms = Some 40.0;
      seed = 7;
    }
  in
  with_client cfg @@ fun t ->
  match C.call t ~request_id:"h1" ping_fields with
  | Error e -> Alcotest.failf "hedged call failed: %s" e.C.message
  | Ok o ->
    check bool_t "hedge won" true o.C.hedge_won;
    check int_t "one hedge fired" 1 o.C.hedges;
    check bool_t "winner is the fast endpoint" true
      (o.C.endpoint = C.Tcp fast.port);
    check bool_t "the hedge beat the slow primary" true
      (o.C.elapsed_ms < 290.0);
    (* let the loser's late answer drain: it must be discarded, not
       crash or double-resolve *)
    Thread.delay 0.4;
    let sf = fake_frames slow and ff = fake_frames fast in
    check int_t "slow endpoint saw exactly one frame" 1 (List.length sf);
    check int_t "fast endpoint saw exactly one frame" 1 (List.length ff);
    let rid frames = List.filter_map frame_request_id frames in
    check bool_t "both frames carried the request_id" true
      (rid sf = [ "h1" ] && rid ff = [ "h1" ]);
    check bool_t "frame ids are distinct" true
      (frame_id (List.hd sf) <> frame_id (List.hd ff))

(* ---------------- transport: frames and write deadlines ---------------- *)

module T = Client.Transport

type event = Frame of string | Oversize

(* The reference framer: the byte-at-a-time state machine the daemon
   read with before the transport was shared. *)
let reference_frames ~cap s =
  let acc = Buffer.create 16 and skipping = ref false and out = ref [] in
  String.iter
    (fun ch ->
      if ch = '\n' then begin
        (if !skipping then skipping := false
         else
           let l = Buffer.contents acc in
           let n = String.length l in
           let l =
             if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
           in
           if l <> "" then out := Frame l :: !out);
        Buffer.clear acc
      end
      else if not !skipping then begin
        Buffer.add_char acc ch;
        if Buffer.length acc > cap then begin
          skipping := true;
          Buffer.clear acc;
          out := Oversize :: !out
        end
      end)
    s;
  List.rev !out

(* Feed [pieces] in order, each inside a window of newline padding that
   [feed] must not read past. *)
let framed ~cap pieces =
  let f = T.framer ~cap () in
  let out = ref [] in
  List.iter
    (fun piece ->
      let b = Bytes.of_string ("\n\n" ^ piece ^ "\n\n") in
      T.feed f b 2 (String.length piece)
        ~on_oversize:(fun () -> out := Oversize :: !out)
        (fun l -> out := Frame l :: !out))
    pieces;
  List.rev !out

let test_framer_rules () =
  let got = framed ~cap:4 [ "ab\r\n\n\r\nabcd\nabcd\r\nabcde\nxy\nz" ] in
  check bool_t "CR stripped, empties skipped, cap counts the CR" true
    (got = [ Frame "ab"; Frame "abcd"; Oversize; Oversize; Frame "xy" ]);
  (* the oversize is reported once, as the line passes the cap, before
     its newline arrives *)
  check bool_t "oversize reported mid-line" true
    (framed ~cap:4 [ "abc"; "de"; "fgh" ] = [ Oversize ]);
  check bool_t "resynchronised at the newline" true
    (framed ~cap:4 [ "abcde"; "fgh\nok\n" ] = [ Oversize; Frame "ok" ])

let test_framer_cuts =
  QCheck.Test.make ~name:"any chunk cut yields the whole stream's frames"
    ~count:500 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let alphabet = "ab\r\n" in
      let s =
        String.init (Random.State.int rng 160) (fun _ ->
            alphabet.[Random.State.int rng (String.length alphabet)])
      in
      let cap = 1 + Random.State.int rng 12 in
      let rec cut i acc =
        if i >= String.length s then List.rev acc
        else
          let k = min (String.length s - i) (Random.State.int rng 9) in
          cut (i + k) (String.sub s i k :: acc)
      in
      let expected = reference_frames ~cap s in
      framed ~cap [ s ] = expected && framed ~cap (cut 0 []) = expected)

(* A response line over the frame cap cannot be routed: the client
   drops the connection, so the attempt is lost and the call retries
   (here: none left) instead of waiting out its budget. *)
let test_oversized_response_is_lost () =
  let f =
    start_fake (fun _ -> Some (String.make (T.max_frame_bytes + 1) 'x'))
  in
  Fun.protect ~finally:(fun () -> stop_fake f) @@ fun () ->
  let cfg =
    {
      (C.default_config [ C.Tcp f.port ]) with
      retry = { R.max_retries = 0; base_ms = 1.0; cap_ms = 5.0 };
      budget_ms = Some 10_000.0;
      seed = 7;
    }
  in
  with_client cfg @@ fun t ->
  match Testutil.with_watchdog ~seconds:10.0 (fun () -> C.call t ping_fields) with
  | Ok _ -> Alcotest.fail "an oversized response line was accepted"
  | Error e ->
    check string_t "the attempt was lost, not timed out" "retries_exhausted"
      (C.failure_kind_to_string e.C.kind);
    let needle = Printf.sprintf "exceeds %d bytes" T.max_frame_bytes in
    let m = e.C.message in
    let nl = String.length needle in
    let rec has i =
      i + nl <= String.length m && (String.sub m i nl = needle || has (i + 1))
    in
    check bool_t ("message names the cap: " ^ m) true (has 0)

(* The budget covers the frame write: against a peer that accepts and
   never reads, a 16 MB frame (far more than loopback socket buffers
   hold) must not block the call past its 300 ms budget. *)
let test_stalled_write_within_budget () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 4;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let held = ref None in
  let acceptor =
    Thread.create (fun () -> held := Some (fst (Unix.accept lfd))) ()
  in
  let cfg =
    { (C.default_config [ C.Tcp port ]) with budget_ms = Some 300.0; seed = 7 }
  in
  let fields =
    [ ("op", J.Str "health"); ("pad", J.Str (String.make 16_000_000 'x')) ]
  in
  let t = C.create cfg in
  Fun.protect
    ~finally:(fun () ->
      (* also unblocks a write stuck in a regressed client *)
      C.close t;
      Thread.join acceptor;
      Option.iter Unix.close !held;
      Unix.close lfd)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match Testutil.with_watchdog ~seconds:5.0 (fun () -> C.call t fields) with
  | Ok _ -> Alcotest.fail "a call to a peer that never reads succeeded"
  | Error e ->
    let took = Unix.gettimeofday () -. t0 in
    check string_t "kind is budget_exhausted" "budget_exhausted"
      (C.failure_kind_to_string e.C.kind);
    check bool_t (Printf.sprintf "ended within 1 s (took %.3f s)" took) true
      (took < 1.0)

(* ---------------- endpoint parsing ---------------- *)

let test_endpoint_parsing () =
  check bool_t "bare port" true (C.endpoint_of_string "8080" = Ok (C.Tcp 8080));
  check bool_t "tcp prefix" true
    (C.endpoint_of_string "tcp:9090" = Ok (C.Tcp 9090));
  check bool_t "unix prefix" true
    (C.endpoint_of_string "unix:/tmp/s.sock" = Ok (C.Unix_path "/tmp/s.sock"));
  check bool_t "bare path" true
    (C.endpoint_of_string "/tmp/s.sock" = Ok (C.Unix_path "/tmp/s.sock"));
  check bool_t "comma list" true
    (C.endpoints_of_string "8080, unix:/a, /b"
    = Ok [ C.Tcp 8080; C.Unix_path "/a"; C.Unix_path "/b" ]);
  check bool_t "out-of-range port rejected" true
    (match C.endpoint_of_string "70000" with Error _ -> true | Ok _ -> false);
  check bool_t "empty list rejected" true
    (match C.endpoints_of_string " , " with Error _ -> true | Ok _ -> false)

(* A prefix with nothing after it is no socket path: the error names the
   endpoint. *)
let test_bare_prefixes_refused () =
  List.iter
    (fun (s, expected) ->
      check
        (Alcotest.result Alcotest.reject Alcotest.string)
        s (Error expected)
        (Result.map ignore (C.endpoint_of_string s)))
    [
      ("unix:", "endpoint \"unix:\" has no path");
      ("tcp:", "endpoint \"tcp:\": bad tcp port");
      (" tcp: ", "endpoint \"tcp:\": bad tcp port");
    ]

(* ---------------- retry: jitter draws ---------------- *)

(* Draw k of a client is output k of the SplitMix64 stream keyed by its
   seed: the first four for seed 7, and the same four again from a
   fresh client. *)
let test_jitter_pinned () =
  let draws () =
    let t = C.create { (C.default_config [ C.Tcp 1 ]) with seed = 7 } in
    List.init 4 (fun _ -> C.jitter t)
  in
  let expected =
    [ 0x1.0eb7260f57eaap-1; 0x1.8f702eef77503p-1; 0x1.1efb643832ec9p-1;
      0x1.ba34305b17a2cp-3 ]
  in
  check bool_t "first draws for seed 7" true (draws () = expected);
  check bool_t "a fresh client draws them again" true (draws () = expected)

(* ---------------- registration ---------------- *)

let () =
  Alcotest.run "client"
    [
      ( "retry",
        [
          Alcotest.test_case "decorrelated jitter bounds" `Quick
            test_delay_bounds;
          Alcotest.test_case "retry_after hint dominates" `Quick
            test_hint_dominates;
          Alcotest.test_case "jitter draws pinned per seed" `Quick
            test_jitter_pinned;
          Alcotest.test_case "response classification" `Quick test_classify;
        ] );
      ( "proto",
        [
          Alcotest.test_case "unknown fields ignored in every frame type"
            `Quick test_decode_ignores_unknown_fields;
        ] );
      ( "call",
        [
          Alcotest.test_case "failover from a dead endpoint" `Quick
            test_failover_dead_endpoint;
          Alcotest.test_case "budget exhaustion surfaces best-so-far" `Quick
            test_budget_exhaustion_best_so_far;
          Alcotest.test_case "retries exhausted after max_retries" `Quick
            test_retries_exhausted;
          Alcotest.test_case "hedge cancellation: exactly one answer" `Quick
            test_hedge_exactly_one_answer;
          Alcotest.test_case "a shed outranks a dead endpoint" `Quick
            test_shed_outranks_dead_endpoint;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "endpoint grammar" `Quick test_endpoint_parsing;
          Alcotest.test_case "bare prefixes refused" `Quick
            test_bare_prefixes_refused;
        ] );
      ( "transport",
        [
          Alcotest.test_case "frame rules" `Quick test_framer_rules;
          QCheck_alcotest.to_alcotest test_framer_cuts;
          Alcotest.test_case "oversized response loses the connection" `Quick
            test_oversized_response_is_lost;
          Alcotest.test_case "a stalled write ends within the budget" `Quick
            test_stalled_write_within_budget;
        ] );
    ]
