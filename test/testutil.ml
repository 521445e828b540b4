(* Shared helpers for the test executables. The (tests) stanza links
   every module of this directory into each test binary, so keep this
   file dependency-light (Alcotest, Unix, threads and the client's
   transport only). *)

(* GC-regression harness: run [f] a few warmup times (arena binding,
   table building and buffer growth are allowed to allocate), then
   assert that steady-state runs allocate zero minor-heap words. The
   check is exact — a single boxed float is a regression — and uses
   multiple steady runs so a once-per-call allocation cannot hide in
   rounding. *)
let assert_no_minor_alloc ?(warmup = 2) ?(runs = 3) name f =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  let words = Gc.minor_words () -. before in
  if words <> 0.0 then
    Alcotest.failf
      "%s allocated %.0f minor-heap words over %d steady-state runs \
       (expected 0)"
      name words runs

(* a TCP port that refuses connections: bound, then closed *)
let dead_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

(* Run [f] on its own thread and wait at most [seconds] for its result:
   a regression that hangs (a blocked write, a connection that never
   closes) fails the test instead of stalling the whole suite. The
   stuck thread is abandoned; the test's own cleanup should unblock it. *)
let with_watchdog ~seconds f =
  let m = Mutex.create () in
  let result = ref None in
  let _ : Thread.t =
    Thread.create
      (fun () ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        Mutex.lock m;
        result := Some r;
        Mutex.unlock m)
      ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    Mutex.lock m;
    let r = !result in
    Mutex.unlock m;
    match r with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "watchdog: no result within %.1f s" seconds;
      Thread.delay 0.01;
      wait ()
  in
  wait ()

(* ---------------- raw frame connection ---------------- *)

(* A connection that speaks newline-framed JSON by hand, for tests that
   drive a daemon (or play one) below the client: frames go out through
   the transport's writer and come back through its framer, and every
   read waits under [select], so a silent peer costs a deadline, never
   a hang. The framer skips empty lines (and a lone ['\r'] is one), so
   [blank_lines] counts those in the raw bytes for tests that must see
   every line the peer sent. *)
type frame_conn = {
  fd : Unix.file_descr;
  framer : Client.Transport.framer;
  chunk : Bytes.t;
  frames : string Queue.t;
  mutable eof : bool;
  mutable line_len : int;  (* raw bytes since the last ['\n'] *)
  mutable line_cr : bool;  (* ... and they are exactly ['\r'] *)
  mutable blank_lines : int;
}

let frame_conn fd =
  {
    fd;
    framer = Client.Transport.framer ();
    chunk = Bytes.create 4096;
    frames = Queue.create ();
    eof = false;
    line_len = 0;
    line_cr = false;
    blank_lines = 0;
  }

let count_blank_lines c n =
  for i = 0 to n - 1 do
    match Bytes.get c.chunk i with
    | '\n' ->
      if c.line_len = 0 || c.line_cr then c.blank_lines <- c.blank_lines + 1;
      c.line_len <- 0;
      c.line_cr <- false
    | ch ->
      c.line_cr <- c.line_len = 0 && ch = '\r';
      c.line_len <- c.line_len + 1
  done

let frame_connect endpoint = frame_conn (Client.connect_endpoint endpoint)
let frame_close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send_frame c line = Client.Transport.write_all c.fd (line ^ "\n")

(* The next frame, or [None] once the peer has closed or [deadline]
   (on the [Unix.gettimeofday] clock) has passed. Frames already read
   are returned first, even past the deadline. *)
let rec next_frame c ~deadline =
  if not (Queue.is_empty c.frames) then Some (Queue.pop c.frames)
  else if c.eof || Unix.gettimeofday () >= deadline then None
  else begin
    (match Unix.select [ c.fd ] [] [] 0.1 with
     | [], _, _ -> ()
     | _ -> (
       match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
       | 0 -> c.eof <- true
       | n ->
         count_blank_lines c n;
         Client.Transport.feed c.framer c.chunk 0 n
           ~on_oversize:(fun () -> failwith "Testutil: oversized frame")
           (fun frame -> Queue.push frame c.frames)
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    next_frame c ~deadline
  end
