(* Smoke tests of the benchmark itself: percentile arithmetic, due-time
   accounting against a fake JSONL server that stalls, and verification
   rejecting corrupted answers. Run with `python3 perfbench/run.py
   --self-test`; exits non-zero when any check fails. *)

open Perfbench
module Json = Wire.Json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let close_to a b = Float.abs (a -. b) < 1e-9

(* ---- percentiles ---- *)

let () =
  let one_to n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "median of 1..5 is 3" (close_to (Stats.median (one_to 5)) 3.0);
  check "median of 1..4 interpolates to 2.5" (close_to (Stats.median (one_to 4)) 2.5);
  check "p0 and p100 are the extremes"
    (close_to (Stats.percentile (one_to 7) 0.0) 1.0 && close_to (Stats.percentile (one_to 7) 100.0) 7.0);
  check "p99 of 1..101 is 100" (close_to (Stats.percentile (one_to 101) 99.0) 100.0);
  check "p25 of 1..5 is 2 (inclusive quartile)" (close_to (Stats.percentile (one_to 5) 25.0) 2.0);
  check "percentile ignores input order" (close_to (Stats.percentile [| 5.; 1.; 4.; 2.; 3. |] 75.0) 4.0);
  check "single sample is every percentile" (close_to (Stats.percentile [| 7.5 |] 99.0) 7.5);
  check "empty sample is rejected"
    (match Stats.percentile [||] 50.0 with _ -> false | exception Invalid_argument _ -> true)

(* ---- due-time accounting ----

   A fake daemon answers every frame at once, except that it stops
   reading for [stall] seconds before the frame with id "o5". Requests
   due during the stall must be charged the wait from their scheduled
   send time even though the generator sent them on time. *)

let stall = 0.2
let period = 0.01
let n = 30

let fake_server listen =
  let fd, _ = Unix.accept listen in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  (try
     while true do
       let line = input_line ic in
       let id =
         match Json.parse line with
         | Ok j -> Option.value (Option.bind (Json.member "id" j) Json.to_str) ~default:"?"
         | Error _ -> "?"
       in
       if id = "o5" then Unix.sleepf stall;
       output_string oc (Printf.sprintf "{\"id\": %S, \"status\": \"ok\"}\n" id);
       flush oc
     done
   with End_of_file | Sys_error _ -> ());
  exit 0

let () =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat ".perfbench" (Printf.sprintf "smoke-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 4;
  match Unix.fork () with
  | 0 -> fake_server listen
  | child ->
    Unix.close listen;
    let frames = Array.init n (fun i -> [ Printf.sprintf "{\"id\": \"o%d\", \"op\": \"health\"}\n" i ]) in
    let offsets = Array.init n (fun i -> float_of_int i *. period) in
    let p = Loadgen.with_conns path 1 (fun conns -> Loadgen.open_ conns ~frames ~offsets ~grace:5.0) in
    Unix.kill child Sys.sigterm;
    ignore (Unix.waitpid [] child);
    Unix.unlink path;
    let recv = Hashtbl.create n in
    List.iter
      (fun (r : Loadgen.reply) ->
        match Json.parse r.Loadgen.line with
        | Ok j -> Hashtbl.replace recv (Option.get (Option.bind (Json.member "id" j) Json.to_str)) r.Loadgen.t_recv
        | Error _ -> ())
      p.Loadgen.replies;
    check "every request answered" (Hashtbl.length recv = n);
    let latency i = Hashtbl.find recv (Printf.sprintf "o%d" i) -. p.Loadgen.due_at.(i) in
    let stall_end = p.Loadgen.due_at.(5) +. stall in
    (* Requests due inside the stall wait for its end. *)
    let charged =
      List.for_all
        (fun i -> latency i >= stall_end -. p.Loadgen.due_at.(i) -. 0.002)
        (List.filter (fun i -> p.Loadgen.due_at.(i) < stall_end) (List.init (n - 5) (fun k -> k + 5)))
    in
    check "requests due during the stall are charged from their due time" charged;
    check "the request due 10 ms into the stall waits >= 180 ms" (latency 6 >= stall -. period -. 0.01);
    check "requests before the stall are fast" (List.for_all (fun i -> latency i < 0.05) [ 0; 1; 2; 3; 4 ]);
    let lag i = p.Loadgen.sent_at.(i) -. p.Loadgen.due_at.(i) in
    check "the generator itself kept to its schedule (lag < 20 ms)" (List.for_all (fun i -> lag i < 0.02) (List.init n Fun.id))

(* ---- verification ---- *)

let () =
  let reqs = Gen.paper (Prob.Rng.create ~seed:11) ~n:4 in
  let r = reqs.(0) in
  let e = Check.expect r in
  let frame ?(ep = e.Check.ep) ?(strategy = e.Check.strategy) ?(status = "ok") ?(ladder = "full") ?(cache = "miss") () =
    Wire.Proto.frame ~id:"o0" ~status
      [
        ( "strategy",
          Json.Arr
            (Array.to_list
               (Array.map (fun g -> Json.Arr (Array.to_list (Array.map (fun c -> Json.Num (float_of_int c)) g))) strategy))
        );
        ("expected_paging", Json.Num (float_of_string ep));
        ("ladder", Json.Str ladder);
        ("queue_ms", Json.Num 0.1);
        ("elapsed_ms", Json.Num 0.2);
        ("cache", Json.Str cache);
      ]
  in
  let ok ?(cache = Check.Must_miss) line = (Check.judge ~expect:e ~cache line).Check.ok in
  check "a faithful answer passes" (ok (frame ()));
  let bumped = Json.to_string (Json.Num (float_of_string e.Check.ep *. (1.0 +. 1e-9))) in
  check "a corrupted expected_paging is rejected" (not (ok (frame ~ep:bumped ())));
  let swapped =
    let s = Array.map Array.copy e.Check.strategy in
    let k = Array.length s - 1 in
    if k = 0 then [| Array.sub s.(0) 1 (Array.length s.(0) - 1); [| s.(0).(0) |] |]
    else begin
      let t = s.(0) in
      s.(0) <- s.(k);
      s.(k) <- t;
      s
    end
  in
  check "a corrupted strategy is rejected" (not (ok (frame ~strategy:swapped ())));
  check "a degraded answer is rejected" (not (ok (frame ~status:"degraded" ())));
  check "a non-full rung is rejected" (not (ok (frame ~ladder:"heuristic" ())));
  check "a hit where a miss was predicted is rejected" (not (ok (frame ~cache:"hit" ())));
  check "a miss where a hit was predicted is rejected" (not (ok ~cache:Check.Must_hit (frame ())));
  check "an error frame is rejected" (not (ok (Wire.Proto.error_frame ~id:(Some "o0") "boom")))

let () =
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all smoke checks passed"
