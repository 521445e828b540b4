(* Shared helpers for the test executables. The (tests) stanza links
   every module of this directory into each test binary, so keep this
   file dependency-light (Alcotest, Unix and threads only). *)

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
