(* Self-healing runtime suite (DESIGN §11).

   Pins the recovery machinery this repository grew around the chaos
   seam: an injected domain death fails exactly one task while the pool
   respawns the lane with [active_domains] accounting kept exact; the
   journal skips checksum-failed lines instead of trusting them; the
   serve cache is a bounded LRU whose journal failures cost one entry's
   persistence; and — the flip side — the seam compiled in
   but not firing is invisible, down to journal bytes. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let tmp name = Filename.temp_file ("confcall_recovery_" ^ name) ".journal"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---------------- faultpoint spec grammar ---------------- *)

let test_parse_ok () =
  (match Faultpoint.parse "" with
   | Ok [] -> ()
   | _ -> Alcotest.fail "empty spec must parse to no entries");
  (match Faultpoint.parse "pool.task.crash=0.25" with
   | Ok [ ("pool.task.crash", p, _) ] -> check bool_t "prob" true (p = 0.25)
   | _ -> Alcotest.fail "single entry");
  (match Faultpoint.parse " pool.task.delay = 0.1 @ 25 " with
   | Ok [ ("pool.task.delay", p, prm) ] ->
     check bool_t "prob with spaces" true (p = 0.1);
     check bool_t "explicit param" true (prm = 25.0)
   | _ -> Alcotest.fail "param entry");
  (match Faultpoint.parse "journal.append.short=0.2" with
   | Ok [ (_, _, prm) ] ->
     check bool_t "short points default to half the write" true (prm = 0.5)
   | _ -> Alcotest.fail "default param");
  (match Faultpoint.parse "journal.fsync=0.1,cache.store=0.3" with
   | Ok [ ("journal.fsync", _, _); ("cache.store", _, _) ] -> ()
   | _ -> Alcotest.fail "entries keep spec order");
  match Faultpoint.parse "*=0.02" with
  | Ok entries ->
    check int_t "wildcard arms the whole catalogue"
      (List.length Faultpoint.catalogue)
      (List.length entries);
    List.iter
      (fun (_, p, _) -> check bool_t "wildcard prob" true (p = 0.02))
      entries
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Faultpoint.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec)
    [
      "nonsense";
      "no.such.point=0.5";
      "pool.task.crash=1.5";
      "pool.task.crash=-0.1";
      "pool.task.crash=nan";
      "pool.task.delay=0.1@-3";
      "pool.task.crash";
      "=0.5";
      "*=0.1@bad";
    ]

let test_arm_probe_disable () =
  Fun.protect ~finally:Faultpoint.disable (fun () ->
      Faultpoint.configure_exn ~seed:7 "journal.fsync=1.0";
      check bool_t "armed" true (Faultpoint.on ());
      (match Faultpoint.hit "journal.fsync" with
       | () -> Alcotest.fail "probability 1.0 must fire"
       | exception Faultpoint.Injected p ->
         check bool_t "payload is the point name" true (p = "journal.fsync"));
      check int_t "fired counted" 1 (Faultpoint.fired "journal.fsync");
      (* armed seam, unarmed catalogued point: never fires *)
      Faultpoint.hit "pool.task.crash";
      (* a mistyped site must fail loud while the seam is on *)
      (match Faultpoint.hit "no.such.point" with
       | () -> Alcotest.fail "unknown point must raise while armed"
       | exception Invalid_argument _ -> ());
      check int_t "total fired" 1 (Faultpoint.total_fired ());
      check bool_t "fired_all" true
        (Faultpoint.fired_all () = [ ("journal.fsync", 1) ]);
      Faultpoint.disable ();
      check bool_t "off" false (Faultpoint.on ());
      (* off means off: probes are no-ops even for unknown names *)
      Faultpoint.hit "no.such.point";
      check bool_t "short probe off" true
        (Faultpoint.short "journal.append.short" = None);
      check int_t "fired counters survive disable" 1
        (Faultpoint.fired "journal.fsync");
      (* probability-zero entries arm nothing *)
      Faultpoint.configure_exn "pool.task.crash=0.0";
      check bool_t "all-zero spec stays off" false (Faultpoint.on ()))

(* ---------------- pool: injected domain death ---------------- *)

let test_killed_fails_only_that_task () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let f i =
        if i = 5 then raise (Exec.Pool.Killed (Failure "injected"))
        else i * i
      in
      let out = Exec.Pool.run_all pool f (Array.init 12 Fun.id) in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v when i <> 5 -> check int_t "sibling result" (i * i) v
          | Error (Failure m) when i = 5 ->
            check bool_t "failure payload" true (m = "injected")
          | _ -> Alcotest.failf "slot %d has the wrong outcome" i)
        out;
      (* the pool keeps serving after the death *)
      check bool_t "pool serves after the crash" true
        (Exec.Pool.map pool succ (Array.init 8 Fun.id) = Array.init 8 succ))

let test_map_reraises_lowest_killed () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      match
        Exec.Pool.map pool
          (fun i ->
            if i = 2 || i = 6 then
              raise (Exec.Pool.Killed (Failure (string_of_int i)))
            else i)
          (Array.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
        check bool_t "lowest-indexed death surfaces" true (m = "2"))

let test_killed_sequential_pool () =
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      let out =
        Exec.Pool.run_all pool
          (fun i -> if i = 1 then raise (Exec.Pool.Killed Exit) else i)
          [| 0; 1; 2 |]
      in
      check bool_t "size-1 pool contains the crash per element" true
        (match out with
         | [| Ok 0; Error Exit; Ok 2 |] -> true
         | _ -> false))

(* Worker deaths must respawn the lane and keep [active_domains] exact.
   The crashes are pinned to worker domains — a death on the caller's
   lane recovers in place and respawns nothing — and batches run until
   at least 3 deaths have been injected. *)
let test_respawn_exact_accounting () =
  let before = Exec.Pool.active_domains () in
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      let main = Domain.self () in
      let attempts = ref 0 in
      while Exec.Pool.respawns pool < 3 && !attempts < 200 do
        incr attempts;
        let out =
          Exec.Pool.run_all pool
            (fun i ->
              Thread.delay 0.002;
              if Domain.self () <> main then
                raise (Exec.Pool.Killed (Failure "die"))
              else i)
            (Array.init 16 Fun.id)
        in
        (* every slot is terminal: a caller-lane result or the death *)
        Array.iter
          (function
            | Ok _ | Error (Failure _) -> ()
            | Error e ->
              Alcotest.failf "unexpected error: %s" (Printexc.to_string e))
          out
      done;
      check bool_t "at least 3 worker deaths injected" true
        (Exec.Pool.respawns pool >= 3);
      (* each replacement joins its predecessor, so the global count
         settles back to exactly this pool's 3 workers *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Exec.Pool.active_domains () <> before + 3
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.01
      done;
      check int_t "active domains exact after respawns" (before + 3)
        (Exec.Pool.active_domains ());
      check bool_t "healed pool serves" true
        (Exec.Pool.map pool succ (Array.init 32 Fun.id) = Array.init 32 succ));
  check int_t "no leaked domains after join" before
    (Exec.Pool.active_domains ())

(* ---------------- journal: corruption and recovery ---------------- *)

let test_journal_mixed_corruption () =
  let path = tmp "mixed" in
  (* a legacy line (no checksum), a good line, a bit-flipped line whose
     checksum no longer matches, another good line, and a torn tail *)
  write_file path
    ("a\t1\n" ^ "b\t2\tcrc:ad072c95\n"
   ^ "c\t9\tcrc:dbc27634\n" (* crc is for "c\t3": payload flipped *)
   ^ "d\t4\tcrc:40e9f512\n" ^ "e\t5\tcrc:362" (* torn mid-write *));
  let j = Journal.load_or_create path in
  check bool_t "corrupt line skipped; good and legacy loaded" true
    (Journal.entries j = [ ("a", "1"); ("b", "2"); ("d", "4") ]);
  check int_t "corrupt line counted" 1 (Journal.corrupt_lines j);
  check bool_t "journal not broken" false (Journal.broken j);
  check bool_t "skipped item is re-doable" false (Journal.completed j "c");
  (* the torn tail was physically truncated, so the re-done item
     appends cleanly, with its checksum *)
  Journal.record j ~id:"e" ~payload:"5";
  Journal.close j;
  check bool_t "file after recovery and re-append" true
    (read_file path
    = "a\t1\nb\t2\tcrc:ad072c95\nc\t9\tcrc:dbc27634\nd\t4\tcrc:40e9f512\n\
       e\t5\tcrc:362cafb3\n");
  check bool_t "read_back skips the corrupt line the same way" true
    (Journal.read_back path
    = [ ("a", "1"); ("b", "2"); ("d", "4"); ("e", "5") ]);
  Sys.remove path

let test_journal_legacy_loads () =
  let path = tmp "legacy" in
  write_file path "x\tpayload one\ny\tpayload\ttwo\n";
  let j = Journal.load_or_create path in
  check bool_t "legacy entries load unverified" true
    (Journal.entries j = [ ("x", "payload one"); ("y", "payload\ttwo") ]);
  check int_t "no corrupt lines" 0 (Journal.corrupt_lines j);
  Journal.close j;
  Sys.remove path

(* ---------------- serve cache: bounded LRU ---------------- *)

let test_cache_lru_eviction () =
  let c = Serve.Cache.create ~max_entries:3 () in
  Serve.Cache.store c ~key:"k1" ~payload:"p1";
  Serve.Cache.store c ~key:"k2" ~payload:"p2";
  Serve.Cache.store c ~key:"k3" ~payload:"p3";
  check int_t "at cap" 3 (Serve.Cache.entries c);
  (* touch k1 so k2 becomes least-recently-used *)
  check bool_t "find touches" true (Serve.Cache.find c ~key:"k1" = Some "p1");
  Serve.Cache.store c ~key:"k4" ~payload:"p4";
  check int_t "still at cap" 3 (Serve.Cache.entries c);
  check int_t "one eviction" 1 (Serve.Cache.evictions c);
  check bool_t "LRU entry (k2) evicted" true
    (Serve.Cache.find c ~key:"k2" = None);
  check bool_t "touched key survives" true
    (Serve.Cache.find c ~key:"k1" = Some "p1");
  check bool_t "newest present" true
    (Serve.Cache.find c ~key:"k4" = Some "p4");
  (* a duplicate store is a no-op, not an eviction *)
  Serve.Cache.store c ~key:"k4" ~payload:"other";
  check bool_t "first writer wins" true
    (Serve.Cache.find c ~key:"k4" = Some "p4");
  check int_t "no extra eviction" 1 (Serve.Cache.evictions c);
  Serve.Cache.close c

let test_cache_journal_evict_restore () =
  let path = tmp "cache" in
  Sys.remove path;
  let c = Serve.Cache.create ~path ~max_entries:2 () in
  Serve.Cache.store c ~key:"x" ~payload:"1";
  Serve.Cache.store c ~key:"y" ~payload:"2";
  Serve.Cache.store c ~key:"z" ~payload:"3" (* evicts x in memory *);
  check bool_t "x evicted" true (Serve.Cache.find c ~key:"x" = None);
  (* re-storing an evicted key must not journal a duplicate id — the
     reload below would refuse to load a double-appended journal *)
  Serve.Cache.store c ~key:"x" ~payload:"1";
  check bool_t "x resident again" true
    (Serve.Cache.find c ~key:"x" = Some "1");
  check int_t "no journal failures" 0 (Serve.Cache.store_errors c);
  Serve.Cache.close c;
  let c2 = Serve.Cache.create ~path ~max_entries:10 () in
  check int_t "every journalled entry loads once" 3 (Serve.Cache.entries c2);
  check bool_t "payload intact across restart" true
    (Serve.Cache.find c2 ~key:"x" = Some "1");
  Serve.Cache.close c2;
  (* an over-cap reload keeps the newest records *)
  let c3 = Serve.Cache.create ~path ~max_entries:2 () in
  check int_t "cap respected on load" 2 (Serve.Cache.entries c3);
  check bool_t "newest record resident" true
    (Serve.Cache.find c3 ~key:"z" = Some "3");
  check bool_t "load evictions counted" true (Serve.Cache.evictions c3 >= 1);
  Serve.Cache.close c3;
  Sys.remove path

let test_cache_store_failure_absorbed () =
  Fun.protect ~finally:Faultpoint.disable (fun () ->
      let path = tmp "storefail" in
      Sys.remove path;
      let c = Serve.Cache.create ~path ~max_entries:8 () in
      Serve.Cache.store c ~key:"ok" ~payload:"1";
      Faultpoint.configure_exn "cache.store=1.0";
      Serve.Cache.store c ~key:"doomed" ~payload:"2";
      Faultpoint.disable ();
      check int_t "failure absorbed and counted" 1
        (Serve.Cache.store_errors c);
      check bool_t "in-memory entry stands" true
        (Serve.Cache.find c ~key:"doomed" = Some "2");
      Serve.Cache.close c;
      (* the failed store never reached the journal *)
      let c2 = Serve.Cache.create ~path ~max_entries:8 () in
      check int_t "only the clean store persisted" 1 (Serve.Cache.entries c2);
      check bool_t "clean entry loads" true
        (Serve.Cache.find c2 ~key:"ok" = Some "1");
      Serve.Cache.close c2;
      Sys.remove path)

(* ---------------- dedup LRU ---------------- *)

(* Completed idempotency entries past [max_completed] go oldest first;
   a replay touches its entry, so it outlives older untouched ones.
   Waiters are plain ints here. *)
let test_dedup_lru_eviction () =
  let module D = Serve.Dedup in
  let d = D.create ~max_completed:3 in
  let run key =
    check bool_t (key ^ " executes") true (D.submit d key 0 = `Execute);
    check bool_t (key ^ " had no waiters") true (D.complete d key key = [])
  in
  List.iter run [ "a"; "b"; "c" ];
  check bool_t "replay touches a" true (D.submit d "a" 1 = `Replay "a");
  run "d";
  let st = D.stats d in
  check int_t "at cap" 3 st.D.completed;
  check int_t "one eviction" 1 st.D.evictions;
  check bool_t "oldest untouched (b) evicted: executes again" true
    (D.submit d "b" 2 = `Execute);
  check bool_t "touched a survives" true (D.submit d "a" 3 = `Replay "a");
  (* b is in flight now: a duplicate parks, completion frees it *)
  check bool_t "in-flight duplicate parks" true (D.submit d "b" 4 = `Queued);
  check bool_t "parked waiter handed back" true (D.complete d "b" "b2" = [ 4 ]);
  let st = D.stats d in
  check int_t "nothing in flight" 0 st.D.in_flight;
  check int_t "still at cap" 3 st.D.completed;
  check int_t "second eviction (c, now oldest)" 2 st.D.evictions;
  check bool_t "c evicted" true (D.submit d "c" 5 = `Execute);
  check bool_t "d survives" true (D.submit d "d" 6 = `Replay "d")

(* ---------------- chaos-off differential ---------------- *)

let winner_key (r : Runner.run_report) =
  match r.Runner.winner with
  | None -> None
  | Some (spec, o) ->
    Some (Solver.spec_to_string spec, o.Solver.expected_paging)

(* The seam compiled in but not firing must be invisible: solver
   winners (sequential and raced, the e25 determinism legs) and
   journalled sweep bytes are identical whether the seam is disabled
   or armed at a point these paths never probe. *)
let test_chaos_off_byte_identity () =
  Fun.protect ~finally:Faultpoint.disable (fun () ->
      let instances =
        let rng = Prob.Rng.create ~seed:90210 in
        List.init 12 (fun _ ->
            let m = 1 + Prob.Rng.int rng 3 in
            let c = 2 + Prob.Rng.int rng 10 in
            let d = 1 + Prob.Rng.int rng (min 4 c) in
            Instance.random_uniform_simplex rng ~m ~c ~d)
      in
      (* heuristic-only chain: the point is seam invisibility, not
         solver coverage (test_parallel owns the full differential) *)
      let chain = Solver.[ Local_search; Greedy; Page_all ] in
      let solver_leg () =
        Exec.Pool.with_pool ~domains:4 (fun pool ->
            List.map
              (fun inst ->
                let seq = Runner.run ~chain inst in
                let par = Runner.run ~chain ~pool inst in
                (winner_key seq, winner_key par))
              instances)
      in
      let journal_leg () =
        let path = tmp "chaosoff" in
        Sys.remove path;
        let j = Journal.load_or_create path in
        for k = 1 to 10 do
          Journal.record j
            ~id:(Printf.sprintf "item%d" k)
            ~payload:(string_of_int (k * k))
        done;
        Journal.close j;
        let bytes = read_file path in
        Sys.remove path;
        bytes
      in
      Faultpoint.disable ();
      let off = solver_leg () in
      let journal_off = journal_leg () in
      (* armed at a serve-only point: the solver and journal paths draw
         nothing, so their outputs must not move *)
      Faultpoint.configure_exn ~seed:3 "serve.accept=1.0";
      check bool_t "solver winners identical with seam armed elsewhere" true
        (solver_leg () = off);
      check bool_t "journal bytes identical with seam armed elsewhere" true
        (journal_leg () = journal_off);
      List.iter
        (fun (seq, par) -> check bool_t "raced = sequential" true (seq = par))
        off)

let () =
  Alcotest.run "recovery"
    [
      ( "faultpoint",
        [
          Alcotest.test_case "spec grammar accepts" `Quick test_parse_ok;
          Alcotest.test_case "spec grammar rejects" `Quick test_parse_errors;
          Alcotest.test_case "arm, probe, disable" `Quick
            test_arm_probe_disable;
        ] );
      ( "pool-recovery",
        [
          Alcotest.test_case "killed task fails alone" `Quick
            test_killed_fails_only_that_task;
          Alcotest.test_case "map re-raises lowest death" `Quick
            test_map_reraises_lowest_killed;
          Alcotest.test_case "size-1 containment" `Quick
            test_killed_sequential_pool;
          Alcotest.test_case "respawn keeps accounting exact" `Quick
            test_respawn_exact_accounting;
        ] );
      ( "journal-integrity",
        [
          Alcotest.test_case "mixed corruption recovered" `Quick
            test_journal_mixed_corruption;
          Alcotest.test_case "legacy journal loads" `Quick
            test_journal_legacy_loads;
        ] );
      ( "cache-lru",
        [
          Alcotest.test_case "cap and eviction order" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "journal survives evict and restore" `Quick
            test_cache_journal_evict_restore;
          Alcotest.test_case "store failure absorbed" `Quick
            test_cache_store_failure_absorbed;
        ] );
      ( "dedup-lru",
        [
          Alcotest.test_case "completed entries evicted oldest first" `Quick
            test_dedup_lru_eviction;
        ] );
      ( "chaos-off",
        [
          Alcotest.test_case "byte identity with seam disabled" `Quick
            test_chaos_off_byte_identity;
        ] );
    ]
