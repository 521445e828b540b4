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

(* Probe [name] once: [true] when it fired. *)
let fires name =
  match Faultpoint.hit name with
  | () -> false
  | exception Faultpoint.Injected _ -> true

(* The 1-based probe indices at which [name] fired over [n] probes,
   with [between i] run before probe [i]. *)
let fire_indices ?(between = ignore) name n =
  List.filter
    (fun i ->
      between i;
      fires name)
    (List.init n succ)

let test_decisions_ignore_other_points () =
  let spec = "journal.fsync=0.3,cache.store=0.3,serve.accept=0.5" in
  Fun.protect ~finally:Faultpoint.disable (fun () ->
      Faultpoint.configure_exn ~seed:5 spec;
      let alone = fire_indices "journal.fsync" 500 in
      Faultpoint.configure_exn ~seed:5 spec;
      let interleaved =
        fire_indices "journal.fsync" 500 ~between:(fun i ->
            for _ = 1 to i mod 3 do
              ignore (fires "cache.store")
            done;
            if i mod 5 = 0 then ignore (fires "serve.accept"))
      in
      check bool_t "some probes fire, some skip" true
        (alone <> [] && List.length alone < 500);
      check bool_t "same decisions whatever other points draw" true
        (alone = interleaved);
      Faultpoint.configure_exn ~seed:6 spec;
      check bool_t "another seed, another sequence" true
        (fire_indices "journal.fsync" 500 <> alone))

(* The fired set {(point, k)} of one seed, every point armed, probed in
   catalogue order on one thread: 40 rounds, 24 fires. *)
let test_fired_set_pinned () =
  Fun.protect ~finally:Faultpoint.disable (fun () ->
      Faultpoint.configure_exn ~seed:11 "*=0.05";
      let fired = ref [] in
      for k = 1 to 40 do
        List.iter
          (fun (p, _) -> if fires p then fired := (p, k) :: !fired)
          Faultpoint.catalogue
      done;
      check
        Alcotest.(list (pair string int))
        "fired set for seed 11"
        [
          ("pool.task.delay", 2); ("journal.fsync", 4);
          ("pool.task.crash", 6); ("serve.lane.crash", 11);
          ("serve.read", 12); ("serve.write.delay", 15);
          ("pool.task.crash", 16); ("pool.task.delay", 16);
          ("serve.read", 20); ("journal.append", 23);
          ("journal.append.short", 23); ("pool.task.delay", 24);
          ("serve.accept", 26); ("journal.append.short", 31);
          ("serve.read", 31); ("journal.append", 32); ("journal.fsync", 32);
          ("serve.accept", 33); ("serve.lane.crash", 34);
          ("journal.append", 36); ("serve.read.delay", 36);
          ("serve.lane.crash", 37); ("journal.fsync", 40); ("serve.write", 40);
        ]
        (List.rev !fired);
      check int_t "fired counters agree" 24 (Faultpoint.total_fired ()))

(* CONFCALL_CHAOS_SEED is read at the boundary: blanks are trimmed, and
   a value that is not an integer fails naming the variable instead of
   replaying seed 1. *)
let test_env_seed_boundary () =
  let spec = "journal.fsync=0.3" in
  (* No unsetenv in the stdlib: an empty spec and seed 1 read as unset. *)
  let restore var unset =
    let v = Option.value (Sys.getenv_opt var) ~default:unset in
    fun () -> Unix.putenv var v
  in
  let with_env seed f =
    let restore_spec = restore "CONFCALL_CHAOS" ""
    and restore_seed = restore "CONFCALL_CHAOS_SEED" "1" in
    Unix.putenv "CONFCALL_CHAOS" spec;
    Unix.putenv "CONFCALL_CHAOS_SEED" seed;
    Fun.protect
      ~finally:(fun () ->
        restore_spec ();
        restore_seed ();
        Faultpoint.disable ())
      f
  in
  let decisions_of_seed seed =
    Fun.protect ~finally:Faultpoint.disable (fun () ->
        Faultpoint.configure_exn ~seed spec;
        fire_indices "journal.fsync" 200)
  in
  let armed =
    with_env "7 " (fun () ->
        Faultpoint.arm_from_env ();
        fire_indices "journal.fsync" 200)
  in
  check bool_t "\"7 \" arms seed 7" true (armed = decisions_of_seed 7);
  check bool_t "seeds 7 and 1 differ" true
    (decisions_of_seed 7 <> decisions_of_seed 1);
  List.iter
    (fun bad ->
      with_env bad (fun () ->
          match Faultpoint.arm_from_env () with
          | () -> Alcotest.failf "seed %S armed" bad
          | exception Invalid_argument msg ->
            check Alcotest.string
              (Printf.sprintf "seed %S refused" bad)
              (Printf.sprintf "CONFCALL_CHAOS_SEED must be an integer, got %S"
                 bad)
              msg;
            check bool_t "nothing armed" false (Faultpoint.on ())))
    [ "x"; ""; "7x"; "1.5" ]

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

(* A submitted task that kills its domain has [fail] run exactly once,
   on that domain; the pool respawns the lane, keeps serving, and
   [active_domains] is exact before and after [join]. *)
let test_submit_killed_fails_once () =
  let before = Exec.Pool.active_domains () in
  let pool = Exec.Pool.create ~caller:false ~domains:2 () in
  check int_t "both lanes spawned" (before + 2) (Exec.Pool.active_domains ());
  let fails = Atomic.make 0 and ran = Atomic.make 0 in
  Exec.Pool.submit pool
    {
      Exec.Pool.run = (fun () -> raise (Exec.Pool.Killed (Failure "die")));
      fail = (fun _ -> Atomic.incr fails);
    };
  let wait_for what cond =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    check bool_t what true (cond ())
  in
  wait_for "the dead lane is respawned" (fun () ->
      Exec.Pool.respawns pool = 1);
  for _ = 1 to 8 do
    Exec.Pool.submit pool
      { Exec.Pool.run = (fun () -> Atomic.incr ran); fail = ignore }
  done;
  wait_for "the healed pool runs later tasks" (fun () -> Atomic.get ran = 8);
  check int_t "fail ran exactly once" 1 (Atomic.get fails);
  (* the replacement joins its predecessor, so the count settles *)
  wait_for "active domains exact after the respawn" (fun () ->
      Exec.Pool.active_domains () = before + 2);
  Exec.Pool.join pool;
  check int_t "active domains exact after join" before
    (Exec.Pool.active_domains ())

(* A joined pool, or one whose only lane is the caller, refuses work
   instead of queueing it where no worker will ever run it. *)
let test_submit_refused () =
  let task = { Exec.Pool.run = ignore; fail = ignore } in
  let refused what pool =
    match Exec.Pool.submit pool task with
    | () -> Alcotest.failf "%s: submit accepted" what
    | exception Invalid_argument _ -> ()
  in
  let pool = Exec.Pool.create ~caller:false ~domains:1 () in
  Exec.Pool.join pool;
  refused "joined pool" pool;
  Exec.Pool.with_pool ~domains:1 (refused "caller-only pool")

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
          Alcotest.test_case "decisions ignore other points" `Quick
            test_decisions_ignore_other_points;
          Alcotest.test_case "fired set pinned per seed" `Quick
            test_fired_set_pinned;
          Alcotest.test_case "CONFCALL_CHAOS_SEED checked at the boundary"
            `Quick test_env_seed_boundary;
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
          Alcotest.test_case "killed submit fails once, lane respawned"
            `Quick test_submit_killed_fails_once;
          Alcotest.test_case "submit refused when joined or caller-only"
            `Quick test_submit_refused;
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
