(* The load generator: one thread, at most two connections, select(2).

   Frames arrive here already encoded (as string pieces). During a phase
   it only writes pieces, reads bytes, splits lines and stamps
   them; every response is parsed after the phase, so decoding never
   delays a later send.

   The open loop sends each request when it is due, whatever the daemon
   is doing, and its latency runs from the {e scheduled} send time: a
   stall of the generator or the daemon is charged to every request that
   was due during it (no coordinated omission). How late the generator
   actually enqueued each frame is kept as its lag. *)

type conn = {
  fd : Unix.file_descr;
  out : string Queue.t;  (** pieces still to write *)
  mutable head_off : int;  (** bytes of the head piece already written *)
  partial : Buffer.t;  (** bytes of an unterminated response line *)
  mutable outstanding : int;
}

type reply = { t_recv : float; line : string }

type phase = {
  sent_at : float array;  (** enqueue time per request; nan: never sent *)
  due_at : float array;  (** scheduled send time (open loop), else nan *)
  replies : reply list;
  t_start : float;
  t_end : float;  (** last reply (or the give-up deadline) *)
}

let open_conn path =
  let fd = Daemon.connect path in
  Unix.set_nonblock fd;
  { fd; out = Queue.create (); head_off = 0; partial = Buffer.create 4096; outstanding = 0 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let with_conns path k f =
  let conns = Array.init k (fun _ -> open_conn path) in
  Fun.protect ~finally:(fun () -> Array.iter close_conn conns) (fun () -> f conns)

let pending c = not (Queue.is_empty c.out)

(* Write as much as the socket takes without blocking. *)
let flush c =
  let rec go () =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some s ->
      let len = String.length s - c.head_off in
      (match Unix.single_write_substring c.fd s c.head_off len with
       | n when n = len ->
         ignore (Queue.pop c.out);
         c.head_off <- 0;
         go ()
       | n -> c.head_off <- c.head_off + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
  in
  go ()

let chunk = Bytes.create 65536

exception Closed

(* Drain what is readable; [on_line] gets each complete line. *)
let read_lines c ~now on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise Closed
  | n ->
    let rec split pos =
      match Bytes.index_from_opt chunk pos '\n' with
      | Some i when i < n ->
        Buffer.add_subbytes c.partial chunk pos (i - pos);
        let line = Buffer.contents c.partial in
        Buffer.clear c.partial;
        on_line { t_recv = now; line };
        split (i + 1)
      | _ -> Buffer.add_subbytes c.partial chunk pos (n - pos)
    in
    split 0
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* One select round over every connection; reads stamp replies with the
   time select returned. *)
let poll conns ~timeout on_reply =
  Array.iter flush conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wfds = List.filter_map (fun c -> if pending c then Some c.fd else None) (Array.to_list conns) in
  match Unix.select fds wfds [] (Float.max 0.0 timeout) with
  | readable, _, _ ->
    let now = Clock.s () in
    Array.iter
      (fun c -> if List.memq c.fd readable then read_lines c ~now (on_reply c))
      conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let total_outstanding conns = Array.fold_left (fun a c -> a + c.outstanding) 0 conns

(* Closed loop: [window] requests outstanding per connection; each reply
   releases the next frame on the same connection, until [seconds] have
   passed; then the stragglers are collected (at most [grace] seconds). *)
let closed conns ~(frames : string list array) ~window ~seconds ~grace =
  let n = Array.length frames in
  let sent_at = Array.make n Float.nan in
  let next = ref 0 and replies = ref [] in
  let t_start = Clock.s () in
  let stop_sending = t_start +. seconds in
  let send c =
    if !next < n && Clock.s () < stop_sending then begin
      List.iter (fun p -> Queue.add p c.out) frames.(!next);
      sent_at.(!next) <- Clock.s ();
      incr next;
      c.outstanding <- c.outstanding + 1
    end
  in
  Array.iter (fun c -> for _ = 1 to window do send c done) conns;
  let give_up = stop_sending +. grace in
  let t_end = ref t_start in
  while total_outstanding conns > 0 && Clock.s () < give_up do
    poll conns ~timeout:0.05 (fun c r ->
        replies := r :: !replies;
        t_end := r.t_recv;
        c.outstanding <- c.outstanding - 1;
        send c)
  done;
  { sent_at; due_at = Array.make n Float.nan; replies = !replies; t_start; t_end = !t_end }

(* Open loop: request [i] is due at [offsets.(i)] seconds after the
   start and goes round robin over the connections. *)
let open_ conns ~(frames : string list array) ~(offsets : float array) ~grace =
  let n = Array.length frames in
  let k = Array.length conns in
  let sent_at = Array.make n Float.nan in
  let t_start = Clock.s () +. 0.002 in
  let due_at = Array.map (fun o -> t_start +. o) offsets in
  let replies = ref [] and i = ref 0 in
  let give_up = (if n = 0 then t_start else due_at.(n - 1)) +. grace in
  let t_end = ref t_start in
  while (!i < n || total_outstanding conns > 0) && Clock.s () < give_up do
    let now = Clock.s () in
    while !i < n && due_at.(!i) <= now do
      let c = conns.(!i mod k) in
      List.iter (fun p -> Queue.add p c.out) frames.(!i);
      sent_at.(!i) <- Clock.s ();
      c.outstanding <- c.outstanding + 1;
      incr i
    done;
    let timeout = if !i < n then due_at.(!i) -. Clock.s () else 0.05 in
    poll conns ~timeout (fun c r ->
        replies := r :: !replies;
        t_end := r.t_recv;
        c.outstanding <- c.outstanding - 1)
  done;
  { sent_at; due_at; replies = !replies; t_start; t_end = !t_end }
