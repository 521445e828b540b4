(* The newline-framed stream transport, shared by the daemon and the
   client: one frame reader, one deadline-bounded writer and one
   endpoint socket. It knows nothing of the protocol inside a frame, and
   nothing of fault injection: the daemon wraps its chaos seams around
   these calls. *)

type endpoint = Tcp of int | Unix_path of string

(* ---------------- endpoint socket ---------------- *)

(* A stream socket for [endpoint] (TCP on loopback, or a Unix path),
   handed with its address to [setup] — the caller's bind or connect.
   The socket is closed if [setup] raises. *)
let socket endpoint setup =
  let domain, addr =
    match endpoint with
    | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  match setup fd addr with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* ---------------- frame reader ---------------- *)

let max_frame_bytes = 4 * 1024 * 1024

(* A byte-chunk -> frame splitter. A frame is a line without its
   ['\n'] and without one trailing ['\r']; empty frames are skipped. A
   line longer than [cap] bytes is reported once, the moment it passes
   the cap, and discarded up to the next ['\n'], which resynchronises
   the stream. Chunk boundaries never show: any cut of a stream yields
   the same frames. *)
type framer = { cap : int; line : Buffer.t; mutable skipping : bool }

let framer ?(cap = max_frame_bytes) () =
  { cap; line = Buffer.create 4096; skipping = false }

let emit f on_frame =
  let n = Buffer.length f.line in
  let n = if n > 0 && Buffer.nth f.line (n - 1) = '\r' then n - 1 else n in
  if n = 0 then Buffer.clear f.line
  else begin
    let frame = Buffer.sub f.line 0 n in
    Buffer.clear f.line;
    on_frame frame
  end

(* Feeds bytes [off, off + len) of [chunk]. *)
let feed f chunk off len ~on_oversize on_frame =
  let stop = off + len in
  let rec split i =
    if i < stop then begin
      let j = ref i in
      while !j < stop && Bytes.unsafe_get chunk !j <> '\n' do
        incr j
      done;
      let j = !j in
      if not f.skipping then
        if Buffer.length f.line + (j - i) > f.cap then begin
          f.skipping <- true;
          Buffer.clear f.line;
          on_oversize ()
        end
        else Buffer.add_subbytes f.line chunk i (j - i);
      if j < stop then begin
        if f.skipping then f.skipping <- false else emit f on_frame;
        split (j + 1)
      end
    end
  in
  if off < 0 || len < 0 || stop > Bytes.length chunk then
    invalid_arg "Transport.feed";
  split off

(* Frames [fd]'s byte stream until EOF or a read error. [before_read]
   runs before every read; [false] skips that read and asks again. *)
let read_frames ?cap ?(before_read = fun () -> true) fd ~on_oversize
    on_frame =
  let f = framer ?cap () in
  let chunk = Bytes.create 65536 in
  let rec pump () =
    if not (before_read ()) then pump ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        feed f chunk 0 n ~on_oversize on_frame;
        pump ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | exception (Unix.Unix_error _ | Sys_error _) -> ()
  in
  pump ()

(* ---------------- deadline-bounded writer ---------------- *)

exception Write_timeout

(* Writes all of [s], or raises [Write_timeout] once [deadline] (on the
   {!Obs.now} clock) passes. No write may block past the deadline:
   each one runs under [SO_SNDTIMEO] set to the time left, so it
   returns early with what the socket took (or [EAGAIN]), and the loop
   re-checks the clock. The timeout only bounds sends, so a reader
   blocked on the same socket is untouched. With no deadline the
   write blocks until done. A partial write leaves a torn frame: the
   caller must drop the connection on any exception. *)
let write_all ?deadline fd s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      (match deadline with
       | None -> ()
       | Some d ->
         let left = d -. Obs.now () in
         if left <= 0.0 then raise Write_timeout;
         (* a zero timeout means "block forever": never pass one *)
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO (Float.max left 1e-3));
      match Unix.single_write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        go off
    end
  in
  go 0

(* ---------------- wake-up pipe ---------------- *)

(* A self-pipe that wakes a thread parked in [select]: the sleeper
   selects on [wake_fd], and [wake] puts one byte in the non-blocking
   write end. A full pipe ([EAGAIN]) already holds a wake-up, and a
   closed one has no sleeper left, so a failed write is dropped. Nothing
   reads the pipe: a woken sleeper re-checks its flags and leaves. *)
type waker = { wake_fd : Unix.file_descr; wake_w : Unix.file_descr }

let waker () =
  let wake_fd, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  { wake_fd; wake_w }

let wake k =
  try ignore (Unix.single_write_substring k.wake_w "\n" 0 1)
  with Unix.Unix_error _ -> ()

let close_waker k =
  (try Unix.close k.wake_w with Unix.Unix_error _ -> ());
  try Unix.close k.wake_fd with Unix.Unix_error _ -> ()
