(* Shared helpers for the test executables. The (tests) stanza links
   every module of this directory into each test binary, so keep this
   file dependency-light (Alcotest and Unix only). *)

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
