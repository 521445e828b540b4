(* The daemon under test: `confcall serve --domains 1 --capacity 8192`
   as a child process on a Unix socket inside the run directory. The
   ladder degrades answers once the queue passes half capacity; with
   256 slots a slow stretch of a shared 2-vCPU host (throughput falling
   to about the open-loop rate) queued 128 requests and did. Half of
   8192 is several seconds of the open loop's arrivals, so only a
   daemon that stops answering reaches it. *)

let capacity = 8192

type t = { pid : int; socket : string }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* One blocking request/response exchange on a fresh connection (health
   probes, not timed traffic). *)
let ask path line =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (line ^ "\n") 0;
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n ->
          (match Bytes.index_from_opt chunk 0 '\n' with
           | Some i when i < n ->
             Buffer.add_subbytes buf chunk 0 i;
             Buffer.contents buf
           | _ ->
             Buffer.add_subbytes buf chunk 0 n;
             go ())
      in
      let line = go () in
      match Wire.Json.parse line with
      | Ok json -> json
      | Error e -> failwith ("daemon reply: " ^ e))

let health path = ask path {|{"id": "health", "op": "health"}|}

(* The child sees the benchmark's environment minus the daemon's own
   CONFCALL_* knobs (chaos seeds, domain defaults). *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"CONFCALL_" kv))
       (Array.to_list (Unix.environment ())))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* [spawn ~exe ~socket ~log] starts the daemon and returns it with the
   set-up time: from spawn until the first [health] reply says ok. *)
let spawn ~exe ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let t0 = Clock.s () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err)
      (fun () ->
        Unix.create_process_env exe
          [| exe; "serve"; "--socket"; socket; "--domains"; "1"; "--capacity"; string_of_int capacity; "--quiet" |]
          (child_env ()) null err err)
  in
  let d = { pid; socket } in
  let deadline = t0 +. 20.0 in
  let rec wait () =
    if exited pid then failwith "daemon exited during start-up (see its log)"
    else if Clock.s () > deadline then failwith "daemon not healthy within 20 s"
    else
      match health socket with
      | json when Wire.Json.member "status" json = Some (Wire.Json.Str "ok") ->
        Clock.s () -. t0
      | _ | (exception Unix.Unix_error _) ->
        Unix.sleepf 0.0001;
        wait ()
  in
  match wait () with
  | setup_s -> (d, setup_s)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    raise e

(* SIGTERM drains; a daemon that does not exit within 20 s is killed.
   Either way the child is reaped before this returns. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.s () +. 20.0 in
  let rec wait () =
    if exited d.pid then ()
    else if Clock.s () > deadline then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    end
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

let with_daemon ~exe ~socket ~log f =
  let d, setup_s = spawn ~exe ~socket ~log in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d setup_s)
