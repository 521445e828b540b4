(* The serve daemon, end to end and in pieces.

   In-process servers on ephemeral loopback ports: the JSONL protocol
   (parser totality, out-of-order pipelined responses, per-connection
   error isolation), admission control and the shedding ladder, deadline
   propagation into degraded anytime answers, the canonical-key result
   cache (including journal persistence across a daemon restart), and
   lifecycle (drain rejects new work, finishes admitted work, leaks no
   domains).

   The centerpiece is the differential: 50 seeded instances solved
   through the daemon must answer with strategy/EP fields byte-identical
   to what `confcall solve --json` prints — the fragment is rebuilt here
   with a local replica of the CLI's emitter and compared as strings. *)

open Confcall
module Sv = Serve.Server
module J = Wire.Json

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- tiny JSONL client ---------------- *)

let connect port = Testutil.frame_connect (Client.Tcp port)
let close_client = Testutil.frame_close
let send = Testutil.send_frame

(* Pull [n] complete response lines, in arrival order, within a bounded
   window. Responses may belong to any in-flight request. *)
let recv_n ?(timeout = 30.0) c n =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go got lines =
    if got = n then List.rev lines
    else
      match Testutil.next_frame c ~deadline with
      | Some line -> go (got + 1) (line :: lines)
      | None -> Alcotest.failf "timed out after %d/%d responses" got n
  in
  go 0 []

let parse_response line =
  match J.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let jstr_field k j =
  match Option.bind (J.member k j) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response missing string field %S" k

let jnum_field k j =
  match Option.bind (J.member k j) J.to_num with
  | Some x -> x
  | None -> Alcotest.failf "response missing numeric field %S" k

let by_id lines =
  List.map
    (fun l ->
      let j = parse_response l in
      ((try jstr_field "id" j with _ -> "?"), (j, l)))
    lines

let solve_frame ?(id = "r") ?request_id ?solver ?chain ?budget_ms
    ?(cache = false) inst =
  let fields =
    [ ("id", J.Str id); ("op", J.Str "solve");
      ("instance", J.Str (Instance.to_string inst)) ]
    @ (match request_id with
       | Some r -> [ ("request_id", J.Str r) ]
       | None -> [])
    @ (match solver with Some s -> [ ("solver", J.Str s) ] | None -> [])
    @ (match chain with Some s -> [ ("chain", J.Str s) ] | None -> [])
    @ (match budget_ms with
       | Some b -> [ ("budget_ms", J.Num b) ]
       | None -> [])
    @ if cache then [] else [ ("cache", J.Bool false) ]
  in
  J.to_string (J.Obj fields)

(* ---------------- server harness ---------------- *)

let with_server ?(domains = 2) ?(capacity = 16) ?cache_path
    ?(max_frame_bytes = 1024 * 1024) ?(write_timeout_ms = 5_000.0)
    ?(max_buffer_bytes = 1024 * 1024) f =
  let before = Exec.Pool.active_domains () in
  let cfg =
    {
      (Sv.default_config (Sv.Tcp 0)) with
      domains;
      capacity;
      cache_path;
      max_frame_bytes;
      write_timeout_ms;
      max_buffer_bytes;
      drain_grace_ms = 30_000.0;
      quiet = true;
    }
  in
  let h = Sv.start cfg in
  let port = Option.get (Sv.bound_port h) in
  let r =
    Fun.protect
      ~finally:(fun () ->
        if not (Sv.stop h) then Alcotest.fail "server did not drain in grace")
      (fun () -> f h port)
  in
  check int_t "no leaked domains after server stop" before
    (Exec.Pool.active_domains ());
  r

(* ---------------- Json unit tests ---------------- *)

let test_json_roundtrip () =
  let cases =
    [
      "null"; "true"; "false"; "0"; "3.25"; "-1.5e-09"; "\"\"";
      "\"a b\""; "[]"; "[1, 2, 3]"; "{}";
      "{\"k\": 1, \"s\": \"v\", \"a\": [true, null]}";
      "{\"nested\": {\"deep\": [{\"x\": 0.5}]}}";
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok j -> check string_t ("roundtrip " ^ s) s (J.to_string j)
      | Error e -> Alcotest.failf "parse %S failed: %s" s e)
    cases;
  (* escapes normalize to the CLI emitter's form *)
  (match J.parse "\"a\\tb\\u0041\\n\"" with
   | Ok j -> check string_t "escape normalization" "\"a\\u0009bA\\n\"" (J.to_string j)
   | Error e -> Alcotest.failf "escape parse failed: %s" e);
  (* surrogate pair decodes to UTF-8 *)
  (match J.parse "\"\\ud83d\\ude00\"" with
   | Ok (J.Str s) -> check string_t "surrogate pair" "\xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "surrogate pair did not parse")

let test_json_rejects () =
  let bad =
    [
      ""; "   "; "{"; "[1,"; "{\"a\" 1}"; "nul"; "tru"; "01x"; "+5"; "--1";
      "1e999"; "nan"; "inf"; "[1] trailing"; "\"unterminated";
      "{\"a\": 1,}"; "[,]"; "{1: 2}";
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    bad;
  (* depth bound is enforced, not stack-overflowed *)
  let deep = String.make 500 '[' ^ String.make 500 ']' in
  (match J.parse deep with
   | Ok _ -> Alcotest.fail "accepted depth-500 nesting"
   | Error _ -> ());
  match J.parse ~max_depth:600 deep with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected depth-500 with max_depth 600: %s" e

(* ---------------- canonical key ---------------- *)

let test_canonical_key () =
  let key = Signature.canonical_key ~objective:Objective.Find_all in
  let i1 =
    Instance.of_string "2 4 2\n0.1 0.2 0.3 0.4\n0.25 0.25 0.25 0.25\n"
  in
  let i2 =
    Instance.of_string "2 4 2\n0.25 0.25 0.25 0.25\n0.1 0.2 0.3 0.4\n"
  in
  check string_t "row order canonicalized" (key i1) (key i2);
  let i3 =
    Instance.of_string "2 4 2\n0.1 0.2 0.3 0.4\n0.25 0.25 0.2 0.3\n"
  in
  check bool_t "different rows, different key" true (key i1 <> key i3);
  check bool_t "objective separates keys" true
    (key i1 <> Signature.canonical_key ~objective:Objective.Find_any i1);
  (* the grid is 1e-9: jitter below it collapses, jitter above it
     does not *)
  let near =
    Instance.of_string "1 2 1\n0.500000000001 0.499999999999\n"
  and far = Instance.of_string "1 2 1\n0.500001 0.499999\n"
  and base = Instance.of_string "1 2 1\n0.5 0.5\n" in
  check string_t "1e-12 jitter collapses" (key base) (key near);
  check bool_t "1e-6 jitter does not" true (key base <> key far);
  (* Journals persist keys: the digest of one instance and objective
     is pinned, so a change to the key material shows here. *)
  check string_t "golden key"
    "f262e9888eefdbff0926cff7cc6a08f0"
    (Signature.canonical_key ~objective:(Objective.Find_at_least 2)
       (Instance.of_string
          "3 5 2\n0.1 0.2 0.3 0.2 0.2\n0.5 0.1 0.1 0.1 0.2\n\
           0.2 0.2 0.2 0.2 0.2\n"))

(* ---------------- ladder ---------------- *)

let test_ladder () =
  let l = Sv.ladder_of_depth ~capacity:8 in
  check bool_t "empty queue full service" true (l 0 = Sv.Full);
  check bool_t "below 50%" true (l 3 = Sv.Full);
  check bool_t "at 50%" true (l 4 = Sv.Heuristic);
  check bool_t "below 75%" true (l 5 = Sv.Heuristic);
  check bool_t "at 75%" true (l 6 = Sv.Fast);
  check bool_t "at capacity" true (l 8 = Sv.Fast);
  let chain = Runner.default_chain in
  check bool_t "full ladder is identity" true
    (Sv.apply_ladder Sv.Full chain = (chain, false));
  let heuristic, changed = Sv.apply_ladder Sv.Heuristic chain in
  check bool_t "heuristic drops exact stages" true changed;
  check bool_t "heuristic keeps anytime + fast" true
    (heuristic = Solver.[ Local_search; Greedy; Page_all ]);
  let fast, changed = Sv.apply_ladder Sv.Fast chain in
  check bool_t "fast drops local search" true changed;
  check bool_t "fast keeps always-fast" true
    (fast = Solver.[ Greedy; Page_all ]);
  check bool_t "fast chain unchanged by fast rung" true
    (Sv.apply_ladder Sv.Fast Solver.[ Greedy; Page_all ]
    = (Solver.[ Greedy; Page_all ], false));
  check bool_t "never empty" true
    (Sv.apply_ladder Sv.Fast [ Solver.Exhaustive ] = ([ Solver.Greedy ], true))

(* ---------------- protocol decoding ---------------- *)

let test_proto_decode () =
  let ok s =
    match Wire.Proto.decode s with
    | Ok f -> f
    | Error (_, e) -> Alcotest.failf "decode %S failed: %s" s e
  in
  let err s =
    match Wire.Proto.decode s with
    | Ok _ -> Alcotest.failf "decode %S unexpectedly succeeded" s
    | Error (id, _) -> id
  in
  let f = ok "{\"id\": \"a\", \"op\": \"health\"}" in
  check bool_t "health" true (f.Wire.Proto.req = Wire.Proto.Health);
  let f =
    ok
      "{\"id\": \"s\", \"op\": \"solve\", \"instance\": \"1 1 1\\n1\\n\", \
       \"budget_ms\": 5}"
  in
  (match f.Wire.Proto.req with
   | Wire.Proto.Solve sr ->
     check bool_t "budget decoded" true (sr.Wire.Proto.budget_ms = Some 5.0);
     check bool_t "cache defaults on" true sr.Wire.Proto.cache
   | _ -> Alcotest.fail "not a solve");
  check bool_t "id recovered from bad frame" true
    (err "{\"id\": \"x\", \"op\": \"nope\"}" = Some "x");
  check bool_t "no id on garbage" true (err "]junk[" = None);
  check bool_t "missing op" true (err "{\"id\": \"y\"}" = Some "y");
  check bool_t "missing id" true (err "{\"op\": \"health\"}" = None);
  check bool_t "zero budget rejected" true
    (err
       "{\"id\": \"z\", \"op\": \"solve\", \"instance\": \"i\", \
        \"budget_ms\": 0}"
    = Some "z");
  check bool_t "oversized id rejected" true
    (err
       (Printf.sprintf "{\"id\": \"%s\", \"op\": \"health\"}"
          (String.make 300 'i'))
    <> None)

(* ---------------- cache ---------------- *)

let test_cache_persistence () =
  let path = Filename.temp_file "confcall_serve" ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let c = Serve.Cache.create ~path ~fsync:true () in
      Serve.Cache.store c ~key:"k1" ~payload:"\"solver\": \"greedy\"";
      Serve.Cache.store c ~key:"k1" ~payload:"SHOULD NOT REPLACE";
      Serve.Cache.store c ~key:"k2" ~payload:"p2";
      check bool_t "find hit" true
        (Serve.Cache.find c ~key:"k1" = Some "\"solver\": \"greedy\"");
      check bool_t "find miss" true (Serve.Cache.find c ~key:"nope" = None);
      check int_t "hits" 1 (Serve.Cache.hits c);
      check int_t "misses" 1 (Serve.Cache.misses c);
      Serve.Cache.close c;
      (* torn final line: the crash dropped half a store — reload keeps
         the complete entries and simply forgets the torn one *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "k3\thalf a payload with no newline";
      close_out oc;
      let c2 = Serve.Cache.create ~path () in
      check int_t "complete entries survive" 2 (Serve.Cache.entries c2);
      check bool_t "first writer won across restart" true
        (Serve.Cache.find c2 ~key:"k1" = Some "\"solver\": \"greedy\"");
      check bool_t "torn entry forgotten" true
        (Serve.Cache.find c2 ~key:"k3" = None);
      Serve.Cache.close c2)

(* ---------------- differential: daemon vs CLI emitter ---------------- *)

(* Local replica of the CLI's JSON emitter (bin/confcall_cli.ml) for the
   fields a solve response shares with `confcall solve --json`. *)
let cli_num x =
  if Float.is_finite x then
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  else Printf.sprintf "\"%h\"" x

let cli_strategy s =
  let arr items = "[" ^ String.concat ", " items ^ "]" in
  arr
    (Array.to_list
       (Array.map
          (fun g -> arr (Array.to_list (Array.map string_of_int g)))
          (Strategy.groups s)))

let cli_fragment spec (o : Solver.outcome) =
  Printf.sprintf
    "\"solver\": \"%s\", \"strategy\": %s, \"expected_paging\": %s, \
     \"exact\": %b"
    (Solver.spec_to_string spec)
    (cli_strategy o.Solver.strategy)
    (cli_num o.Solver.expected_paging)
    o.Solver.exact

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let test_differential_50_instances () =
  with_server ~domains:2 ~capacity:64 (fun _h port ->
      let rng = Prob.Rng.create ~seed:0x5E21 in
      let insts =
        List.init 50 (fun i ->
            let m = 1 + Prob.Rng.int rng 3
            and c = 2 + Prob.Rng.int rng 10 in
            let d = 1 + Prob.Rng.int rng (min c 3) in
            (Printf.sprintf "i%d" i,
             Instance.random_uniform_simplex rng ~m ~c ~d))
      in
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      List.iter
        (fun (id, inst) -> send c (solve_frame ~id ~solver:"greedy" inst))
        insts;
      let responses = by_id (recv_n c (List.length insts)) in
      check int_t "every instance answered" (List.length insts)
        (List.length responses);
      List.iter
        (fun (id, inst) ->
          let j, raw = List.assoc id responses in
          check string_t (id ^ " status") "ok" (jstr_field "status" j);
          let expected =
            cli_fragment Solver.Greedy (Solver.solve Solver.Greedy inst)
          in
          let start =
            match find_sub raw "\"solver\"" with
            | Some i -> i
            | None -> Alcotest.failf "%s: no solver field in %s" id raw
          in
          let stop =
            match find_sub raw ", \"ladder\"" with
            | Some i -> i
            | None -> Alcotest.failf "%s: no ladder field in %s" id raw
          in
          check string_t (id ^ " byte-identical strategy/EP fields") expected
            (String.sub raw start (stop - start)))
        insts)

(* ---------------- pipelining and error isolation ---------------- *)

let test_pipelining_and_isolation () =
  with_server ~domains:2 ~capacity:64 ~max_frame_bytes:2048
    (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:7 in
      let slow = Instance.random_uniform_simplex rng ~m:3 ~c:14 ~d:3 in
      let fast = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
      (* a slow budgeted chain first, then quick ones: all must answer *)
      send c (solve_frame ~id:"slow" ~chain:"exact" ~budget_ms:300.0 slow);
      for i = 1 to 8 do
        send c (solve_frame ~id:(Printf.sprintf "f%d" i) ~solver:"greedy" fast)
      done;
      (* malformed frames interleaved: each answers, none kills the pipe *)
      send c "this is not json";
      send c "{\"id\": \"noop\", \"op\": \"warp\"}";
      send c (String.make 4000 'x');
      send c "{\"id\": \"after\", \"op\": \"health\"}";
      let responses = by_id (recv_n c 13) in
      check int_t "13 terminal responses" 13 (List.length responses);
      let status id = jstr_field "status" (fst (List.assoc id responses)) in
      List.iter
        (fun i ->
          check string_t (Printf.sprintf "f%d ok" i) "ok"
            (status (Printf.sprintf "f%d" i)))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      check bool_t "slow answered" true
        (List.mem (status "slow") [ "ok"; "degraded" ]);
      check string_t "bad op answered" "error" (status "noop");
      check string_t "connection survives garbage" "ok" (status "after");
      let errors =
        List.filter (fun (_, (j, _)) -> jstr_field "status" j = "error")
          responses
      in
      check int_t "three error frames" 3 (List.length errors))

(* ---------------- deadline propagation ---------------- *)

let test_deadline_degrades () =
  with_server ~domains:1 ~capacity:8 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:11 in
      let inst = Instance.random_uniform_simplex rng ~m:3 ~c:16 ~d:3 in
      send c (solve_frame ~id:"tight" ~chain:"exact" ~budget_ms:1.0 inst);
      let j = parse_response (List.hd (recv_n c 1)) in
      check string_t "over-budget returns degraded" "degraded"
        (jstr_field "status" j);
      let reason = jstr_field "degraded_reason" j in
      check bool_t "reason names the budget" true
        (find_sub reason "budget" <> None);
      (* still a real answer: a strategy and a finite EP *)
      check bool_t "anytime strategy present" true
        (J.member "strategy" j <> None);
      check bool_t "EP finite" true
        (Float.is_finite (jnum_field "expected_paging" j)))

(* ---------------- request check ---------------- *)

(* An objective the instance cannot meet (k = 5 of m = 2 devices) is an
   error frame whose text clients read: the daemon's "objective: ..."
   message, pinned byte for byte. *)
let test_objective_error_text () =
  with_server ~domains:1 ~capacity:8 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:5 in
      let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
      send c
        (J.to_string
           (J.Obj
              [
                ("id", J.Str "k5"); ("op", J.Str "solve");
                ("instance", J.Str (Instance.to_string inst));
                ("objective", J.Str "5");
              ]));
      check string_t "error frame"
        "{\"id\": \"k5\", \"status\": \"error\", \"error\": \"objective: \
         Find_at_least k requires 1 <= k <= m\"}"
        (List.hd (recv_n c 1)))

(* ---------------- overload and shedding ---------------- *)

let test_overload_sheds () =
  with_server ~domains:1 ~capacity:2 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:13 in
      let slow = Instance.random_uniform_simplex rng ~m:3 ~c:14 ~d:3 in
      let n = 12 in
      for i = 1 to n do
        send c
          (solve_frame ~id:(Printf.sprintf "o%d" i) ~chain:"exact"
             ~budget_ms:150.0 slow)
      done;
      let responses = by_id (recv_n c n) in
      check int_t "every request got a terminal response" n
        (List.length responses);
      let count st =
        List.length
          (List.filter (fun (_, (j, _)) -> jstr_field "status" j = st)
             responses)
      in
      let ok = count "ok" and degraded = count "degraded" in
      let rejected = count "rejected" in
      check int_t "no errors" 0 (count "error");
      check bool_t "some requests shed" true (rejected > 0);
      check int_t "accepted + shed = sent" n (ok + degraded + rejected);
      List.iter
        (fun (_, (j, _)) ->
          if jstr_field "status" j = "rejected" then
            check string_t "shed reason" "overload" (jstr_field "reason" j))
        responses)

(* Sheds close nothing: the queue bound is the one admission rule, so
   once a burst has been shed and a slot is free again, the next solve
   is admitted. The fillers pin the one lane and the two queue slots
   for ~30 ms each; the probes behind them, written in the same burst,
   find the queue full. *)
let test_shed_burst_leaves_admission_open () =
  let capacity = 2 in
  with_server ~domains:1 ~capacity (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:29 in
      let slow = Instance.random_zipf rng ~s:1.1 ~m:3 ~c:18 ~d:3 in
      let quick = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
      let fillers = 1 + capacity and probes = 16 in
      let burst =
        List.init fillers (fun i ->
            solve_frame ~id:(Printf.sprintf "fill%d" i) ~chain:"exhaustive"
              ~budget_ms:30.0 slow)
        @ List.init probes (fun i ->
              solve_frame ~id:(Printf.sprintf "probe%d" i) ~solver:"greedy"
                quick)
      in
      send c (String.concat "\n" burst);
      let responses = by_id (recv_n c (fillers + probes)) in
      let shed =
        List.filter
          (fun (id, (j, _)) ->
            String.starts_with ~prefix:"probe" id
            && jstr_field "status" j = "rejected")
          responses
      in
      List.iter
        (fun (_, (j, _)) ->
          check string_t "shed reason" "overload" (jstr_field "reason" j);
          check bool_t "shed carries retry_after_ms" true
            (jnum_field "retry_after_ms" j >= 1.0))
        shed;
      check bool_t "at least max 8 capacity probes shed" true
        (List.length shed >= max 8 capacity);
      let rec wait_for_slot n =
        send c "{\"id\": \"h\", \"op\": \"health\"}";
        let h = parse_response (List.hd (recv_n c 1)) in
        if int_of_float (jnum_field "queue_depth" h) >= capacity then begin
          if n = 0 then Alcotest.fail "queue never drained";
          Thread.delay 0.005;
          wait_for_slot (n - 1)
        end
      in
      wait_for_slot 1000;
      send c (solve_frame ~id:"after" ~solver:"greedy" quick);
      let j = parse_response (List.hd (recv_n c 1)) in
      let status = jstr_field "status" j in
      check bool_t
        (Printf.sprintf "admitted after the burst (status %s)" status)
        true
        (status = "ok" || status = "degraded"))

(* ---------------- cache through the daemon, across restart ------------- *)

let test_cache_hit_and_restart () =
  let path = Filename.temp_file "confcall_serve" ".cachej" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let rng = Prob.Rng.create ~seed:17 in
      let inst = Instance.random_uniform_simplex rng ~m:2 ~c:8 ~d:2 in
      let ep =
        with_server ~domains:1 ~cache_path:path (fun _h port ->
            let c = connect port in
            Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
            send c (solve_frame ~id:"a" ~solver:"greedy" ~cache:true inst);
            let j1 = parse_response (List.hd (recv_n c 1)) in
            check string_t "first solve is a miss" "miss"
              (jstr_field "cache" j1);
            send c (solve_frame ~id:"b" ~solver:"greedy" ~cache:true inst);
            let j2 = parse_response (List.hd (recv_n c 1)) in
            check string_t "second solve hits" "hit" (jstr_field "cache" j2);
            check bool_t "hit EP matches miss EP" true
              (jnum_field "expected_paging" j1
              = jnum_field "expected_paging" j2);
            jnum_field "expected_paging" j1)
      in
      (* restarted daemon, same journal: first request already hits *)
      with_server ~domains:1 ~cache_path:path (fun _h port ->
          let c = connect port in
          Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
          send c (solve_frame ~id:"c" ~solver:"greedy" ~cache:true inst);
          let j = parse_response (List.hd (recv_n c 1)) in
          check string_t "restart serves the journal" "hit"
            (jstr_field "cache" j);
          check bool_t "EP survives the restart byte-exactly" true
            (ep = jnum_field "expected_paging" j)))

(* Robust radii that print alike under %g are different solves: the
   second of the pair must miss the cache and answer its own radius. *)
let test_cache_robust_radii_exact () =
  let rng = Prob.Rng.create ~seed:19 in
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:8 ~d:3 in
  with_server ~domains:1 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      List.iter
        (fun (id, solver) ->
          send c (solve_frame ~id ~solver ~cache:true inst);
          let j = parse_response (List.hd (recv_n c 1)) in
          check string_t (solver ^ " misses") "miss" (jstr_field "cache" j);
          let spec = Result.get_ok (Solver.spec_of_string solver) in
          check bool_t (solver ^ " answers its own solve") true
            ((Solver.solve spec inst).Solver.expected_paging
            = jnum_field "expected_paging" j))
        [ ("r1", "robust-0.3"); ("r2", "robust-0.3000004") ])

(* ---------------- health, metrics, simulate, drain ---------------- *)

let test_ops_and_drain () =
  with_server ~domains:1 ~capacity:8 (fun h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      send c "{\"id\": \"h\", \"op\": \"health\"}";
      let j = parse_response (List.hd (recv_n c 1)) in
      check bool_t "health not draining" true
        (J.member "draining" j = Some (J.Bool false));
      check bool_t "health capacity" true
        (jnum_field "capacity" j = 8.0);
      send c "{\"id\": \"m\", \"op\": \"metrics\"}";
      let j = parse_response (List.hd (recv_n c 1)) in
      let prom = jstr_field "prometheus" j in
      check bool_t "prometheus exposition has serve counters" true
        (find_sub prom "serve_responses_ok" <> None);
      send c
        "{\"id\": \"sim\", \"op\": \"simulate\", \"scenario\": \"suburb\", \
         \"seed\": 3}";
      let j = parse_response (List.hd (recv_n c 1)) in
      check string_t "simulate ok" "ok" (jstr_field "status" j);
      check bool_t "simulate reports schemes" true
        (match J.member "per_scheme" j with
         | Some (J.Arr (_ :: _)) -> true
         | _ -> false);
      send c
        "{\"id\": \"bad\", \"op\": \"simulate\", \"scenario\": \"atlantis\"}";
      let j = parse_response (List.hd (recv_n c 1)) in
      check string_t "unknown scenario is an error" "error"
        (jstr_field "status" j);
      (* drain: new work is rejected, the daemon stops cleanly *)
      Sv.request_drain h;
      let rng = Prob.Rng.create ~seed:23 in
      let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
      send c (solve_frame ~id:"late" ~solver:"greedy" inst);
      let j = parse_response (List.hd (recv_n c 1)) in
      check string_t "submission during drain rejected" "rejected"
        (jstr_field "status" j);
      check string_t "drain reason" "draining" (jstr_field "reason" j))

(* The daemon's [simulate] answer is the in-process replicated summary,
   scheme by scheme, at one replica and at several: same calls, same
   cells, and the same printed EP. *)
let test_simulate_matches_in_process () =
  with_server ~domains:1 ~capacity:8 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let seed = 5 in
      List.iter
        (fun (scenario, replicas) ->
          send c
            (Printf.sprintf
               "{\"id\": \"s\", \"op\": \"simulate\", \"scenario\": %S, \
                \"seed\": %d, \"replicas\": %d}"
               scenario seed replicas);
          let j = parse_response (List.hd (recv_n c 1)) in
          let what = Printf.sprintf "%s x%d" scenario replicas in
          check string_t (what ^ " ok") "ok" (jstr_field "status" j);
          let build = List.assoc scenario Cellsim.Scenario.all in
          let expected =
            Cellsim.Replicate.run_summary ~replicas (build ~seed ())
          in
          let served =
            match J.member "per_scheme" j with
            | Some (J.Arr l) -> l
            | _ -> Alcotest.failf "%s: no per_scheme array" what
          in
          check int_t (what ^ " scheme count")
            (List.length expected.Cellsim.Replicate.per_scheme)
            (List.length served);
          List.iter2
            (fun (a : Cellsim.Replicate.scheme_agg) s ->
              let name = Cellsim.Sim.scheme_to_string a.Cellsim.Replicate.scheme in
              check string_t (what ^ " scheme") name (jstr_field "scheme" s);
              check int_t (what ^ " " ^ name ^ " calls") a.Cellsim.Replicate.calls
                (int_of_float (jnum_field "calls" s));
              check int_t (what ^ " " ^ name ^ " cells")
                a.Cellsim.Replicate.cells_paged
                (int_of_float (jnum_field "cells_paged" s));
              check string_t (what ^ " " ^ name ^ " EP")
                (J.to_string (J.Num a.Cellsim.Replicate.expected_paging))
                (J.to_string (J.Num (jnum_field "expected_paging" s))))
            expected.Cellsim.Replicate.per_scheme served)
        [ ("suburb", 1); ("suburb", 3); ("residence-exp", 1);
          ("residence-exp", 3) ])

(* The daemon looks a scenario name up as the CLI's --scenario does, in
   any case, and an unknown name's error lists the valid ones. *)
let test_simulate_scenario_names () =
  with_server ~domains:1 ~capacity:8 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let simulate scenario =
        send c
          (Printf.sprintf
             "{\"id\": \"s\", \"op\": \"simulate\", \"scenario\": %S, \
              \"seed\": 5}"
             scenario);
        parse_response (List.hd (recv_n c 1))
      in
      let per_scheme j =
        match J.member "per_scheme" j with
        | Some l -> J.to_string l
        | None -> Alcotest.fail "no per_scheme array"
      in
      let lower = simulate "suburb" and mixed = simulate "SubUrb" in
      check string_t "mixed-case name ok" "ok" (jstr_field "status" mixed);
      check string_t "mixed-case name runs the same scenario"
        (per_scheme lower) (per_scheme mixed);
      let bad = simulate "Atlantis" in
      check string_t "unknown scenario is an error" "error"
        (jstr_field "status" bad);
      check bool_t "the error lists the scenarios" true
        (find_sub (jstr_field "error" bad) "suburb | commuter-day" <> None))

let test_drain_finishes_inflight () =
  with_server ~domains:1 ~capacity:16 (fun h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:29 in
      let slow = Instance.random_uniform_simplex rng ~m:3 ~c:14 ~d:3 in
      (* several admitted requests, then an immediate drain: each one
         must still get its terminal response *)
      let n = 5 in
      for i = 1 to n do
        send c
          (solve_frame ~id:(Printf.sprintf "w%d" i) ~chain:"exact"
             ~budget_ms:100.0 slow)
      done;
      Thread.delay 0.05 (* let admission happen before the drain *);
      Sv.request_drain h;
      let responses = by_id (recv_n c n) in
      check int_t "all in-flight answered across drain" n
        (List.length responses);
      List.iter
        (fun (id, (j, _)) ->
          check bool_t (id ^ " terminal") true
            (List.mem (jstr_field "status" j)
               [ "ok"; "degraded"; "rejected" ]))
        responses;
      check bool_t "drain completes within grace" true (Sv.stop h))

(* A drain wakes the accept loop through its self-pipe instead of
   waiting for the select timeout (100 ms) to run out, so stopping an
   idle server takes milliseconds. The server idles in select before it
   is stopped; the fastest of three stops is checked, so one slow
   scheduling slice on a loaded host does not fail the test. *)
let test_idle_stop_is_prompt () =
  let stop_ms () =
    let before = Exec.Pool.active_domains () in
    let h =
      Sv.start { (Sv.default_config (Sv.Tcp 0)) with domains = 1; quiet = true }
    in
    Thread.delay 0.02;
    let t0 = Unix.gettimeofday () in
    check bool_t "idle server drains" true (Sv.stop h);
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    check int_t "no leaked domains after server stop" before
      (Exec.Pool.active_domains ());
    ms
  in
  let fastest =
    List.fold_left Float.min infinity (List.init 3 (fun _ -> stop_ms ()))
  in
  if fastest >= 50.0 then
    Alcotest.failf "fastest of 3 idle stops took %.1f ms (want < 50)" fastest

(* ---------------- idempotency ---------------- *)

(* The server-side half of the resilient-client contract: frames
   sharing a [request_id] execute (and journal) once per daemon,
   whether the duplicate arrives mid-execution (parked waiter) or
   after completion (LRU replay); duplicates are answered with the
   owner's terminal payload plus a ["dedup": "hit"] marker. *)
let test_idempotency_dedup () =
  let reqlog = Filename.temp_file "confcall_dedup" ".reqlog" in
  Sys.remove reqlog;
  let cfg =
    {
      (Sv.default_config (Sv.Tcp 0)) with
      domains = 1;
      capacity = 16;
      request_log = Some reqlog;
      drain_grace_ms = 30_000.0;
      quiet = true;
    }
  in
  let h = Sv.start cfg in
  let port = Option.get (Sv.bound_port h) in
  let c = connect port in
  let rng = Prob.Rng.create ~seed:41 in
  let slow = Instance.random_uniform_simplex rng ~m:3 ~c:14 ~d:3 in
  let dedup_hit j =
    match Option.bind (J.member "dedup" j) J.to_str with
    | Some "hit" -> true
    | _ -> false
  in
  (* two frames, same request_id, pipelined while the first still
     executes: one execution, two answers, the duplicate marked *)
  send c
    (solve_frame ~id:"a1" ~request_id:"rid-1" ~chain:"exact"
       ~budget_ms:200.0 slow);
  send c
    (solve_frame ~id:"a2" ~request_id:"rid-1" ~chain:"exact"
       ~budget_ms:200.0 slow);
  let rs = by_id (recv_n c 2) in
  let j1, _ = List.assoc "a1" rs and j2, _ = List.assoc "a2" rs in
  check string_t "duplicate gets the owner's status" (jstr_field "status" j1)
    (jstr_field "status" j2);
  check bool_t "owner is not dedup-marked" false (dedup_hit j1);
  check bool_t "duplicate is dedup-marked" true (dedup_hit j2);
  (* a third frame after the terminal answer: completed-LRU replay *)
  send c
    (solve_frame ~id:"a3" ~request_id:"rid-1" ~chain:"exact"
       ~budget_ms:200.0 slow);
  let j3, _ = List.assoc "a3" (by_id (recv_n c 1)) in
  check bool_t "replay is dedup-marked" true (dedup_hit j3);
  check string_t "replay matches the original status"
    (jstr_field "status" j1) (jstr_field "status" j3);
  (* a distinct request_id still executes *)
  send c (solve_frame ~id:"b1" ~request_id:"rid-2" ~budget_ms:200.0 slow);
  let jb, _ = List.assoc "b1" (by_id (recv_n c 1)) in
  check bool_t "fresh request_id executes" false (dedup_hit jb);
  (* the health op reports the table; the owner's response is written
     before the table memoizes, so only rid-1 — proven Done by a3's
     replay — is guaranteed visible here *)
  send c "{\"id\": \"h\", \"op\": \"health\"}";
  let jh, _ = List.assoc "h" (by_id (recv_n c 1)) in
  check bool_t "health reports completed dedup entries" true
    (jnum_field "dedup_completed" jh >= 1.0);
  check bool_t "health reports dedup hits" true
    (jnum_field "dedup_hits" jh >= 2.0);
  close_client c;
  check bool_t "drain completes" true (Sv.stop h);
  (* the audit trail: exactly one journal line per distinct request_id,
     in execution order — [read_back] would raise on a duplicate *)
  let entries = Journal.read_back reqlog in
  (try Sys.remove reqlog with Sys_error _ -> ());
  check int_t "one journal line per executed request_id" 2
    (List.length entries);
  check bool_t "journalled ids are the executed ids" true
    (List.map fst entries = [ "rid-1"; "rid-2" ])

(* ---------------- loadgen ---------------- *)

module Lg = Serve.Loadgen

let health_frame port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  send c "{\"id\": \"h\", \"op\": \"health\"}";
  parse_response (List.hd (recv_n c 1))

(* Two back-to-back runs against one daemon: request ids are fresh per
   run, so the dedup table answers nothing from the first run. *)
let test_loadgen_fresh_ids retries () =
  with_server ~domains:1 (fun _h port ->
      let o = { Lg.default_opts with rate = 400.0; requests = 20; retries } in
      for run = 1 to 2 do
        let s = Lg.run (Lg.Tcp port) o in
        let tag = Printf.sprintf "run %d: " run in
        check int_t (tag ^ "sent") 20 s.Lg.sent;
        check int_t (tag ^ "all accepted") 20 (s.Lg.ok + s.Lg.degraded);
        check int_t (tag ^ "no errors") 0 s.Lg.errors
      done;
      check int_t "no dedup replay across runs" 0
        (int_of_float (jnum_field "dedup_hits" (health_frame port))))

(* A capacity-1 daemon whose lane is held by a slow budgeted exhaustive
   solve sheds the load; each shed is a [rejected] outcome with its
   latency, never an error. *)
let test_loadgen_counts_sheds () =
  with_server ~domains:1 ~capacity:1 (fun _h port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let rng = Prob.Rng.create ~seed:23 in
      let slow = Instance.random_zipf rng ~s:1.1 ~m:3 ~c:18 ~d:3 in
      for i = 1 to 2 do
        send c
          (solve_frame ~id:(Printf.sprintf "hold%d" i) ~chain:"exhaustive"
             ~budget_ms:400.0 slow)
      done;
      Thread.delay 0.05;
      let s =
        Lg.run (Lg.Tcp port) { Lg.default_opts with rate = 500.0; requests = 8 }
      in
      ignore (recv_n c 2);
      check bool_t "sheds counted as rejected" true (s.Lg.rejected >= 1);
      check int_t "one latency per shed" s.Lg.rejected
        (Array.length s.Lg.rejected_ms);
      check int_t "no errors" 0 s.Lg.errors;
      check int_t "none unanswered" 0 s.Lg.unanswered;
      check int_t "every request has one outcome" 8
        (s.Lg.ok + s.Lg.degraded + s.Lg.rejected))

(* No target accepts: the run raises the first target's connect error
   instead of reporting every request as a failed call. *)
let test_loadgen_unreachable () =
  let missing = Filename.temp_file "confcall_nodaemon" ".sock" in
  Sys.remove missing;
  let targets = [ Lg.Unix_path missing; Lg.Tcp (Testutil.dead_port ()) ] in
  match Lg.run_multi targets { Lg.default_opts with requests = 5 } with
  | _ -> Alcotest.fail "a run with no reachable target returned stats"
  | exception Unix.Unix_error (e, _, _) ->
    check bool_t "the first target's error" true (e = Unix.ENOENT)

(* ---------------- solve lanes ---------------- *)

let lane_config domains =
  { (Sv.default_config (Sv.Tcp 0)) with domains; capacity = 256; quiet = true }

(* Lane deaths cost no request, however many lanes die. With
   [serve.lane.crash] armed at 0.5 about every other job start kills its
   lane; the pool respawns the domain and the untouched job goes back
   on the queue. Every one of 200 solves gets a terminal [ok] within a
   bounded wait (a daemon that stops serving fails here, not hangs), and
   afterwards nothing is queued or in flight and the drain is clean. *)
let test_lane_deaths_cost_no_request domains () =
  let before = Exec.Pool.active_domains () in
  let respawns0 = Exec.Pool.total_respawns () in
  Fun.protect ~finally:Faultpoint.disable @@ fun () ->
  Faultpoint.configure_exn ~seed:42 "serve.lane.crash=0.5";
  let h = Sv.start (lane_config domains) in
  let port = Option.get (Sv.bound_port h) in
  let c = connect port in
  Fun.protect ~finally:(fun () -> close_client c) (fun () ->
      let rng = Prob.Rng.create ~seed:31 in
      let inst = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
      let n = 200 in
      for i = 1 to n do
        send c (solve_frame ~id:(Printf.sprintf "s%d" i) ~solver:"greedy" inst)
      done;
      let responses = by_id (recv_n ~timeout:20.0 c n) in
      List.iter
        (fun (id, (j, _)) ->
          check string_t (id ^ " ok") "ok" (jstr_field "status" j))
        responses;
      check int_t "one answer per solve" n
        (List.length (List.sort_uniq compare (List.map fst responses)));
      (* the last answer is written just before its job leaves the
         in-flight count *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec settled () =
        let hj = health_frame port in
        if jnum_field "inflight" hj = 0.0 || Unix.gettimeofday () > deadline
        then hj
        else (Thread.delay 0.01; settled ())
      in
      let hj = settled () in
      check int_t "queue_depth" 0 (int_of_float (jnum_field "queue_depth" hj));
      check int_t "inflight" 0 (int_of_float (jnum_field "inflight" hj)));
  let deaths = Faultpoint.fired "serve.lane.crash" in
  check bool_t "more lanes died than there are lanes" true (deaths > domains);
  check bool_t "stop drains clean" true (Sv.stop h);
  check int_t "every dead lane respawned" deaths
    (Exec.Pool.total_respawns () - respawns0);
  check int_t "no leaked domains after server stop" before
    (Exec.Pool.active_domains ())

(* [domains] counts solve lanes, and every lane is a spawned domain, so
   none computes on domain 0. The OCaml 5.1 runtime runs at most 128
   domains, domain 0 among them: 127 lanes start, and 128 are refused
   before anything is spawned or bound. *)
let test_domains_are_spawned_lanes () =
  let before = Exec.Pool.active_domains () in
  List.iter
    (fun domains ->
      let h = Sv.start (lane_config domains) in
      check int_t
        (Printf.sprintf "domains %d: %d spawned" domains domains)
        (before + domains)
        (Exec.Pool.active_domains ());
      check bool_t "stop drains clean" true (Sv.stop h);
      check int_t "joined" before (Exec.Pool.active_domains ()))
    [ 1; 3 ];
  let h = Sv.start (lane_config 127) in
  check int_t "127 lanes" (before + 127) (Exec.Pool.active_domains ());
  check bool_t "stop drains clean" true (Sv.stop h);
  check int_t "127: nothing leaked" before (Exec.Pool.active_domains ());
  match Sv.start (lane_config 128) with
  | h ->
    ignore (Sv.stop h);
    Alcotest.fail "128 lanes accepted"
  | exception Invalid_argument msg ->
    check string_t "128 refused" "serve: domains must be in [1, 127], got 128"
      msg;
    check int_t "128: nothing spawned" before (Exec.Pool.active_domains ())

(* Once [stop] has returned, the lanes' pool is joined; a solve arriving
   on a connection that outlived it is a [draining] reject, not a lost
   request. *)
let test_submit_after_join_is_draining () =
  let h = Sv.start (lane_config 1) in
  let c = connect (Option.get (Sv.bound_port h)) in
  Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
  check bool_t "stop drains clean" true (Sv.stop h);
  let rng = Prob.Rng.create ~seed:37 in
  let inst = Instance.random_uniform_simplex rng ~m:2 ~c:5 ~d:2 in
  send c (solve_frame ~id:"late" ~solver:"greedy" inst);
  let j = parse_response (List.hd (recv_n ~timeout:10.0 c 1)) in
  check string_t "rejected" "rejected" (jstr_field "status" j);
  check string_t "reason" "draining" (jstr_field "reason" j)

(* ---------------- golden frames ---------------- *)

(* Every response shape the daemon writes, byte for byte: a direct and
   a chain solve, a cache hit, dedup replays (of a miss, of a hit and of
   an error), an error with and without a request_id, health, simulate
   at one and two replicas, drain — plus the cache journal those solves
   leave on disk, which a restarted daemon replays verbatim. Only the
   timing values are masked. These bytes are a regression pin: clients
   parse the frames, and cache journals outlive the daemon that wrote
   them. *)

let mask_timings line =
  let keys = [ "\"queue_ms\": "; "\"elapsed_ms\": " ] in
  let n = String.length line in
  let buf = Buffer.create n in
  let rec go i =
    if i < n then
      match
        List.find_opt
          (fun k ->
            let l = String.length k in
            i + l <= n && String.sub line i l = k)
          keys
      with
      | Some k ->
        Buffer.add_string buf k;
        Buffer.add_char buf 'T';
        let j = ref (i + String.length k) in
        while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do
          incr j
        done;
        go !j
      | None ->
        Buffer.add_char buf line.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let golden_frames =
  [
    ( "solve direct, cache miss",
      "{\"id\": \"d1\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[1, 2, 3], [0, 4, 5]], \"expected_paging\": 4.47477344251792, \"exact\": false, \"ladder\": \"full\", \"queue_ms\": T, \"elapsed_ms\": T, \"cache\": \"miss\"}" );
    ( "solve direct, cache hit",
      "{\"id\": \"d2\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[1, 2, 3], [0, 4, 5]], \"expected_paging\": 4.47477344251792, \"exact\": false, \"cache\": \"hit\"}" );
    ( "solve chain",
      "{\"id\": \"ch\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[0, 1], [2, 3, 4]], \"expected_paging\": 3.3472216498559004, \"exact\": false, \"chain\": \"greedy,page-all\", \"ladder\": \"full\", \"queue_ms\": T, \"elapsed_ms\": T, \"cache\": \"off\"}" );
    ( "solve chain, budgeted",
      "{\"id\": \"cb\", \"status\": \"ok\", \"solver\": \"local-search\", \"strategy\": [[0, 1], [2, 3, 4]], \"expected_paging\": 3.3472216498559004, \"exact\": false, \"chain\": \"local-search,greedy,page-all\", \"ladder\": \"full\", \"queue_ms\": T, \"elapsed_ms\": T, \"cache\": \"off\"}" );
    ( "request_id, cache miss",
      "{\"id\": \"q1\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[0, 1], [2, 3, 4]], \"expected_paging\": 3.3472216498559004, \"exact\": false, \"ladder\": \"full\", \"queue_ms\": T, \"elapsed_ms\": T, \"cache\": \"miss\"}" );
    ( "dedup replay of a miss",
      "{\"id\": \"q2\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[0, 1], [2, 3, 4]], \"expected_paging\": 3.3472216498559004, \"exact\": false, \"ladder\": \"full\", \"queue_ms\": T, \"elapsed_ms\": T, \"cache\": \"miss\", \"dedup\": \"hit\"}" );
    ( "request_id, cache hit",
      "{\"id\": \"q3\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[1, 2, 3], [0, 4, 5]], \"expected_paging\": 4.47477344251792, \"exact\": false, \"cache\": \"hit\"}" );
    ( "dedup replay of a hit",
      "{\"id\": \"q4\", \"status\": \"ok\", \"solver\": \"greedy\", \"strategy\": [[1, 2, 3], [0, 4, 5]], \"expected_paging\": 4.47477344251792, \"exact\": false, \"cache\": \"hit\", \"dedup\": \"hit\"}" );
    ( "error with request_id",
      "{\"id\": \"e1\", \"status\": \"error\", \"error\": \"inapplicable: Optimal.branch_and_bound_d2: requires d = 2\"}" );
    ( "dedup replay of an error",
      "{\"id\": \"e2\", \"status\": \"error\", \"error\": \"inapplicable: Optimal.branch_and_bound_d2: requires d = 2\", \"dedup\": \"hit\"}" );
    ( "error without request_id",
      "{\"id\": \"e3\", \"status\": \"error\", \"error\": \"solver: unknown solver \\\"nonsense\\\"\"}" );
    ( "frame error",
      "{\"id\": \"e4\", \"status\": \"error\", \"error\": \"unknown op \\\"warp\\\" (expected solve|simulate|health|metrics|drain)\"}" );
    ( "health",
      "{\"id\": \"h\", \"status\": \"ok\", \"draining\": false, \"queue_depth\": 0, \"capacity\": 8, \"domains\": 1, \"inflight\": 0, \"connections\": 1, \"cache_entries\": 2, \"cache_hits\": 2, \"cache_misses\": 2, \"cache_evictions\": 0, \"pool_respawns\": 0, \"dedup_in_flight\": 0, \"dedup_completed\": 3, \"dedup_hits\": 3, \"request_log\": false}" );
    ( "simulate",
      "{\"id\": \"s1\", \"status\": \"ok\", \"scenario\": \"suburb\", \"seed\": 3, \"replicas\": 1, \"per_scheme\": [{\"scheme\": \"blanket\", \"calls\": 156, \"cells_paged\": 5776, \"expected_paging\": 5776}, {\"scheme\": \"selective-d3\", \"calls\": 156, \"cells_paged\": 4923, \"expected_paging\": 2881.0168217719574}, {\"scheme\": \"diffuse-d3\", \"calls\": 156, \"cells_paged\": 3432, \"expected_paging\": 3298.7171050794504}], \"queue_ms\": T, \"elapsed_ms\": T}" );
    ( "simulate, two replicas",
      "{\"id\": \"s2\", \"status\": \"ok\", \"scenario\": \"suburb\", \"seed\": 3, \"replicas\": 2, \"per_scheme\": [{\"scheme\": \"blanket\", \"calls\": 307, \"cells_paged\": 11360, \"expected_paging\": 11360}, {\"scheme\": \"selective-d3\", \"calls\": 307, \"cells_paged\": 9604, \"expected_paging\": 5681.1583773328093}, {\"scheme\": \"diffuse-d3\", \"calls\": 307, \"cells_paged\": 6590, \"expected_paging\": 6498.3187517221695}], \"queue_ms\": T, \"elapsed_ms\": T}" );
    ( "drain",
      "{\"id\": \"dr\", \"status\": \"ok\", \"draining\": true}" );
    ( "cache journal",
      "a2386eb8ea6a069e446f5cd464e1d350|989e443d86a1a0d19dd9afd15cba8ba7\t\"solver\": \"greedy\", \"strategy\": [[1, 2, 3], [0, 4, 5]], \"expected_paging\": 4.47477344251792, \"exact\": false\tcrc:31a233be\n1492be8e73d16bbee135923f85740283|989e443d86a1a0d19dd9afd15cba8ba7\t\"solver\": \"greedy\", \"strategy\": [[0, 1], [2, 3, 4]], \"expected_paging\": 3.3472216498559004, \"exact\": false\tcrc:01c5a3db\n" );
  ]

let test_golden_frames () =
  let path = Filename.temp_file "confcall_golden" ".cachej" in
  Sys.remove path;
  let rng = Prob.Rng.create ~seed:0x601D in
  let small = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:2 in
  let other = Instance.random_uniform_simplex rng ~m:2 ~c:5 ~d:2 in
  let three = Instance.random_uniform_simplex rng ~m:2 ~c:6 ~d:3 in
  let got =
    with_server ~domains:1 ~capacity:8 ~cache_path:path (fun _h port ->
        let c = connect port in
        Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
        (* requests go one at a time, in list order; [settle] lets the
           previous terminal finish its bookkeeping (dedup memo, lane
           counters) before a frame that observes it *)
        List.map
          (fun (what, settle, frame) ->
            if settle then Thread.delay 0.1;
            send c frame;
            (what, mask_timings (List.hd (recv_n c 1))))
          [
            ( "solve direct, cache miss", false,
              solve_frame ~id:"d1" ~solver:"greedy" ~cache:true small );
            ( "solve direct, cache hit", false,
              solve_frame ~id:"d2" ~solver:"greedy" ~cache:true small );
            ("solve chain", false, solve_frame ~id:"ch" ~chain:"fast" other);
            ( "solve chain, budgeted", false,
              solve_frame ~id:"cb" ~chain:"heuristic" ~budget_ms:10_000.0
                other );
            ( "request_id, cache miss", false,
              solve_frame ~id:"q1" ~request_id:"g1" ~solver:"greedy"
                ~cache:true other );
            ( "dedup replay of a miss", true,
              solve_frame ~id:"q2" ~request_id:"g1" ~solver:"greedy"
                ~cache:true other );
            ( "request_id, cache hit", false,
              solve_frame ~id:"q3" ~request_id:"g2" ~solver:"greedy"
                ~cache:true small );
            ( "dedup replay of a hit", true,
              solve_frame ~id:"q4" ~request_id:"g2" ~solver:"greedy"
                ~cache:true small );
            ( "error with request_id", false,
              solve_frame ~id:"e1" ~request_id:"g3" ~solver:"bnb" three );
            ( "dedup replay of an error", true,
              solve_frame ~id:"e2" ~request_id:"g3" ~solver:"bnb" three );
            ( "error without request_id", false,
              solve_frame ~id:"e3" ~solver:"nonsense" three );
            ("frame error", false, "{\"id\": \"e4\", \"op\": \"warp\"}");
            ("health", true, "{\"id\": \"h\", \"op\": \"health\"}");
            ( "simulate", false,
              "{\"id\": \"s1\", \"op\": \"simulate\", \"scenario\": \
               \"suburb\", \"seed\": 3}" );
            ( "simulate, two replicas", false,
              "{\"id\": \"s2\", \"op\": \"simulate\", \"scenario\": \
               \"suburb\", \"seed\": 3, \"replicas\": 2}" );
            ("drain", false, "{\"id\": \"dr\", \"op\": \"drain\"}");
        ])
  in
  let journal = In_channel.with_open_bin path In_channel.input_all in
  (try Sys.remove path with Sys_error _ -> ());
  let got = got @ [ ("cache journal", journal) ] in
  List.iter2
    (fun (what, expected) (what', line) ->
      check string_t "golden order" what what';
      check string_t what expected line)
    golden_frames got

(* ---------------- registration ---------------- *)

(* ---------------- stalled readers ---------------- *)

(* A client that pipelines requests and never reads the answers is
   disconnected, so its writer thread and connection slot come back:
   within 2 s a second connection's health sees itself alone. With a
   roomy output buffer the answers pile up in the socket and a drained
   chunk misses the 200 ms write deadline; with the default 1 MiB one
   the buffer overflows first. Either way the daemon hangs up. *)
let stalled_reader_released ~max_buffer_bytes ~counter =
  let count () = Obs.Metrics.counter_value Obs.Metrics.default counter in
  with_server ~domains:1 ~write_timeout_ms:200.0 ~max_buffer_bytes
    (fun _h port ->
      let before = count () in
      let raw = connect port in
      Fun.protect ~finally:(fun () -> close_client raw) @@ fun () ->
      let frames =
        String.concat "\n"
          (List.init 20_000 (fun i ->
               Printf.sprintf "{\"id\": \"h%d\", \"op\": \"health\"}" i))
      in
      Testutil.with_watchdog ~seconds:10.0 (fun () ->
          (* the daemon reads on while its writer stalls, so this
             returns — or fails once the daemon hangs up *)
          (try send raw frames with Unix.Unix_error _ -> ());
          let deadline = Unix.gettimeofday () +. 2.0 in
          let rec poll () =
            let c = connect port in
            let n =
              Fun.protect ~finally:(fun () -> close_client c) (fun () ->
                  send c "{\"id\": \"probe\", \"op\": \"health\"}";
                  jnum_field "connections"
                    (parse_response (List.hd (recv_n ~timeout:2.0 c 1))))
            in
            if n <> 1.0 then
              if Unix.gettimeofday () > deadline then
                Alcotest.failf
                  "stalled reader still connected after 2 s (connections \
                   = %.0f)"
                  n
              else begin
                Thread.delay 0.05;
                poll ()
              end
          in
          poll ());
      check bool_t (counter ^ " counted") true (count () > before))

let test_stalled_reader_disconnected () =
  stalled_reader_released ~max_buffer_bytes:(64 * 1024 * 1024)
    ~counter:"serve_write_timeouts";
  stalled_reader_released ~max_buffer_bytes:(1024 * 1024)
    ~counter:"serve_write_overflow"

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_json_rejects;
        ] );
      ( "keys-and-ladder",
        [
          Alcotest.test_case "canonical instance key" `Quick
            test_canonical_key;
          Alcotest.test_case "shedding ladder" `Quick test_ladder;
        ] );
      ( "protocol",
        [ Alcotest.test_case "frame decoding" `Quick test_proto_decode ] );
      ( "cache",
        [
          Alcotest.test_case "persistence, torn tail, fsync" `Quick
            test_cache_persistence;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "differential: 50 instances vs CLI emitter"
            `Quick test_differential_50_instances;
          Alcotest.test_case "pipelining + error isolation" `Quick
            test_pipelining_and_isolation;
          Alcotest.test_case "deadline propagation degrades" `Quick
            test_deadline_degrades;
          Alcotest.test_case "overload sheds with backpressure" `Quick
            test_overload_sheds;
          Alcotest.test_case "cache hit and restart" `Quick
            test_cache_hit_and_restart;
          Alcotest.test_case "robust radii keyed exactly" `Quick
            test_cache_robust_radii_exact;
          Alcotest.test_case "health/metrics/simulate/drain" `Quick
            test_ops_and_drain;
          Alcotest.test_case "drain finishes in-flight work" `Quick
            test_drain_finishes_inflight;
          Alcotest.test_case "idle stop is prompt" `Quick
            test_idle_stop_is_prompt;
          Alcotest.test_case "simulate matches in-process replicas" `Quick
            test_simulate_matches_in_process;
          Alcotest.test_case "simulate scenario names in any case" `Quick
            test_simulate_scenario_names;
          Alcotest.test_case "golden frames and cache journal" `Quick
            test_golden_frames;
          Alcotest.test_case "stalled reader disconnected" `Quick
            test_stalled_reader_disconnected;
          Alcotest.test_case "objective error text" `Quick
            test_objective_error_text;
          Alcotest.test_case "a shed burst leaves admission open" `Quick
            test_shed_burst_leaves_admission_open;
        ] );
      ( "idempotency",
        [
          Alcotest.test_case "request_id dedup: in-flight, replay, audit"
            `Quick test_idempotency_dedup;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "fresh request ids per run, retries 0" `Quick
            (test_loadgen_fresh_ids 0);
          Alcotest.test_case "fresh request ids per run, retries 1" `Quick
            (test_loadgen_fresh_ids 1);
          Alcotest.test_case "sheds are rejected outcomes" `Quick
            test_loadgen_counts_sheds;
          Alcotest.test_case "no reachable target raises" `Quick
            test_loadgen_unreachable;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "lane deaths cost no request, domains 1" `Quick
            (test_lane_deaths_cost_no_request 1);
          Alcotest.test_case "lane deaths cost no request, domains 2" `Quick
            (test_lane_deaths_cost_no_request 2);
          Alcotest.test_case "domains are spawned lanes, 1 to 127" `Quick
            test_domains_are_spawned_lanes;
          Alcotest.test_case "submit after join is a draining reject" `Quick
            test_submit_after_join_is_draining;
        ] );
    ]
