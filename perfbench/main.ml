(* The repository benchmark. Usage (from the repository root, after
   `dune build ./bin/confcall_cli.exe ./perfbench/main.exe`, which
   perfbench/run.py does):

     main.exe --workload serve-paper|serve-mid|sim-aging --seed N
              --seconds S --trace 0|1 --daemon _build/default/bin/confcall_cli.exe

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   table. The last stdout line is the result object; see
   perfbench/README.md for every metric's definition. *)

open Perfbench
module Rng = Prob.Rng
module Json = Wire.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-paper|serve-mid|sim-aging --seed N --seconds S --trace 0|1 [--daemon EXE]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage ()
let int_arg k = match int_of_string_opt (arg k) with Some n -> n | None -> usage ()
let workload = arg "workload"
let seed = int_arg "seed"
let seconds = int_arg "seconds"
let trace = match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
let daemon_exe = Option.value (Hashtbl.find_opt args "daemon") ~default:"_build/default/bin/confcall_cli.exe"
let run_dir = ".perfbench"
let m = Record.metric

let pct xs p = Stats.percentile xs p

(* Throughput and latency of a run. On the shared 2-vCPU host their
   run-to-run spread reached 0.27–0.38 of the median (README.md), beyond
   any bound the benchmark may set, so they are reported unbounded: in
   the record of every run and with the layers of a traced run. *)
let timings ~throughput ~samples lat =
  let n = Array.length lat in
  [
    m ~samples "e2e.throughput_rps" "1/s" throughput;
    m ~samples:n "e2e.latency_p50_ms" "ms" (pct lat 50.0);
    m ~samples:n "e2e.latency_p90_ms" "ms" (pct lat 90.0);
    m ~samples:n "e2e.latency_p99_ms" "ms" (pct lat 99.0);
  ]

(* ---------------- served workloads ---------------- *)

type serve_params = {
  window : int;  (** closed loop: outstanding requests per connection *)
  rate : float;  (** open loop: fixed absolute arrival rate, requests/s *)
  closed_cap_rps : float;  (** frames prepared per closed-loop second *)
  gen : Rng.t -> n:int -> Gen.req array;
}

let connections = 2

(* Open-loop rates are fixed and absolute: at most half of the
   closed-loop throughput this code measured in a slow stretch of a
   shared 2-vCPU x86-64 VM (README.md; 2200–3000/s on serve-paper), low
   enough that queueing does not amplify host noise. *)
let serve_params = function
  | "serve-paper" ->
    Some { window = 8; rate = 1000.0; closed_cap_rps = 8000.0; gen = Gen.paper }
  | "serve-mid" ->
    Some
      {
        window = 3;
        rate = 15.0;
        closed_cap_rps = 80.0;
        gen = (fun rng ~n -> Array.sub (Gen.mid rng ~matrices:((n + 5) / 6)) 0 n);
      }
  | _ -> None

let frames prefix reqs =
  Array.map (fun (r : Gen.req) -> Gen.frame_pieces ~id:(prefix ^ string_of_int r.Gen.idx) r) reqs

let setup_spawns = 9

type outcome = {
  stamp_extra : (string * Json.t) list;
  notes : string list;
  attempted : int;
  failed : int;
  e2e : Record.metric list;  (** the bounded metrics *)
  timings : Record.metric list;  (** the run's unbounded speed figures *)
  traced : (Record.metric list * (float * float)) option;
      (** workload-specific layer metrics, and the coverage pair (sum of
          the named layers, end-to-end figure), in ms *)
}

let serve p =
  let closed_s = 0.3 *. float_of_int seconds and open_s = 0.7 *. float_of_int seconds in
  let rng = Rng.create ~seed in
  let warm_reqs = p.gen (Rng.split rng) ~n:(max 12 (int_of_float (p.closed_cap_rps *. 0.5))) in
  let closed_reqs = p.gen (Rng.split rng) ~n:(int_of_float (p.closed_cap_rps *. closed_s)) in
  let n_open = int_of_float (p.rate *. open_s) in
  let open_reqs = p.gen (Rng.split rng) ~n:n_open in
  let offsets = Gen.poisson (Rng.split rng) ~rate:p.rate ~n:n_open in
  let warm_frames = frames "w" warm_reqs
  and closed_frames = frames "c" closed_reqs
  and open_frames = frames "o" open_reqs in
  let sock k = Filename.concat run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k) in
  let log = Filename.concat run_dir "daemon.log" in
  let setups =
    List.init (setup_spawns - 1) (fun k ->
        let d, s = Daemon.spawn ~exe:daemon_exe ~socket:(sock k) ~log in
        Daemon.stop d;
        s)
  in
  let last_setup, closed_phase, open_phase, health =
    Daemon.with_daemon ~exe:daemon_exe ~socket:(sock setup_spawns) ~log (fun d setup_s ->
        let phase f =
          Gc.full_major ();
          Loadgen.with_conns d.Daemon.socket connections f
        in
        ignore (phase (fun c -> Loadgen.closed c ~frames:warm_frames ~window:p.window ~seconds:1.0 ~grace:60.0));
        let cp = phase (fun c -> Loadgen.closed c ~frames:closed_frames ~window:p.window ~seconds:closed_s ~grace:60.0) in
        let op = phase (fun c -> Loadgen.open_ c ~frames:open_frames ~offsets ~grace:60.0) in
        (setup_s, cp, op, Daemon.health d.Daemon.socket))
  in
  let setup_s = Stats.median (Array.of_list (last_setup :: setups)) in
  let closed = Check.phase ~prefix:"c" ~reqs:closed_reqs ~expect_of:(Check.expecter closed_reqs) closed_phase in
  let open_ = Check.phase ~prefix:"o" ~reqs:open_reqs ~expect_of:(Check.expecter open_reqs) open_phase in
  let failures = closed.Check.failures @ open_.Check.failures in
  let attempted = closed.Check.attempted + open_.Check.attempted in
  List.iteri
    (fun k (i, why) -> if k < 5 then Printf.printf "failure: request %d: %s\n" i why)
    failures;
  let lat = Array.of_list (List.map (fun (a : Check.answered) -> a.Check.latency_ms) open_.Check.answered) in
  let n_lat = Array.length lat in
  let throughput =
    float_of_int (List.length closed.Check.answered) /. (closed_phase.Loadgen.t_end -. closed_phase.Loadgen.t_start)
  in
  let mean_ep =
    Stats.mean (Array.of_list (List.map (fun (a : Check.answered) -> a.Check.verdict.Check.ep) open_.Check.answered))
  in
  let hint k = Option.bind (Json.member k health) Json.to_num in
  let domains = Option.value (hint "domains") ~default:Float.nan in
  let stamp_extra =
    [
      ("transport", Json.Str "unix-socket");
      ("daemon_domains", Json.Num domains);
      ("connections", Json.Num (float_of_int connections));
      ("closed_window_per_connection", Json.Num (float_of_int p.window));
      ("open_rate_per_s", Json.Num p.rate);
    ]
  in
  let notes =
    [
      Printf.sprintf "closed loop: %d sent, %d ok in %.3f s" closed.Check.attempted
        (List.length closed.Check.answered) (closed_phase.Loadgen.t_end -. closed_phase.Loadgen.t_start);
      Printf.sprintf "open loop: %d sent at %.0f/s, %d ok; setup over %d spawns" open_.Check.attempted p.rate n_lat
        setup_spawns;
      Printf.sprintf "fail_ratio %d/%d" (List.length failures) attempted;
    ]
  in
  let e2e =
    [
      m ~samples:setup_spawns "setup_s" "s" setup_s; m ~samples:n_lat "paged_per_call" "cells" mean_ep;
    ]
  in
  let traced () =
    (* The layers of every open-loop original, on the reply it actually
       got, within half the run's seconds. *)
    let budget = Clock.s () +. (0.5 *. float_of_int seconds) in
    List.iter
      (fun (a : Check.answered) ->
        if a.Check.req.Gen.origin = a.Check.req.Gen.idx && Clock.s () < budget then
          Layers.served a.Check.req ~reply:(Some a.Check.line))
      open_.Check.answered;
    (* Queue, execution and the rest (socket, threads, decode, parse,
       key, admission, write) of every open-loop cache miss. *)
    let misses =
      List.filter_map
        (fun (a : Check.answered) ->
          match (a.Check.verdict.Check.queue_ms, a.Check.verdict.Check.exec_ms) with
          | Some q, Some e -> Some (q, e, a.Check.latency_ms -. q -. e)
          | _ -> None)
        open_.Check.answered
    in
    let col f = Array.of_list (List.map f misses) in
    let q = col (fun (q, _, _) -> q) and e = col (fun (_, e, _) -> e) and o = col (fun (_, _, o) -> o) in
    let nm = Array.length q in
    let rungs =
      List.filter_map
        (fun (a : Check.answered) -> a.Check.verdict.Check.full_rung)
        (closed.Check.answered @ open_.Check.answered)
    in
    let hits = Option.value (hint "cache_hits") ~default:0.0
    and miss = Option.value (hint "cache_misses") ~default:0.0 in
    let lags =
      Array.of_list
        (List.filter_map
           (fun i ->
             let s = open_phase.Loadgen.sent_at.(i) in
             if Float.is_nan s then None else Some ((s -. open_phase.Loadgen.due_at.(i)) *. 1000.0))
           (List.init n_open Fun.id))
    in
    let serve_layers =
      [
        m ~samples:nm "serve.queue_ms.p50" "ms" (pct q 50.0);
        m ~samples:nm "serve.queue_ms.p99" "ms" (pct q 99.0);
        m ~samples:nm "serve.exec_ms.p50" "ms" (pct e 50.0);
        m ~samples:nm "serve.exec_ms.p99" "ms" (pct e 99.0);
        m ~samples:nm "serve.overhead_ms.p50" "ms" (pct o 50.0);
        m ~samples:nm "serve.overhead_ms.p99" "ms" (pct o 99.0);
        m "serve.cache_hit_ratio" "ratio" (if hits +. miss > 0.0 then hits /. (hits +. miss) else 0.0);
        m ~samples:(List.length rungs) "serve.full_rung_ratio" "ratio"
          (float_of_int (List.length (List.filter Fun.id rungs)) /. float_of_int (max 1 (List.length rungs)));
        m ~samples:(Array.length lags) "loadgen.lag_p99_ms" "ms" (pct lags 99.0);
      ]
    in
    (* Coverage: the request path's layer medians against the end-to-end
       median; solver layers are inside exec. *)
    let med name = (Layers.summary name).Layers.p50_us /. 1000.0 in
    let layer_sum =
      List.fold_left ( +. ) (pct q 50.0 +. pct e 50.0)
        (List.map med
           [
             "wire.encode_request"; "wire.decode_request"; "core.instance_of_string"; "core.canonical_key";
             "wire.encode_response"; "wire.decode_response";
           ])
    in
    (serve_layers, (layer_sum, pct lat 50.0))
  in
  {
    stamp_extra;
    notes;
    attempted;
    failed = List.length failures;
    e2e;
    timings = timings ~throughput ~samples:(List.length closed.Check.answered) lat;
    traced = (if trace then Some (traced ()) else None);
  }

(* ---------------- sim-aging ---------------- *)

let sim_builds = 2
let sim_min_chunks = 40
let sim_trace_chunks = 10
let shadow_ticks = 3000

let sim () =
  (* Set-up is building the scenario config; it is seed-independent
     work, repeated [sim_builds] times (once, timed as a layer, when
     tracing). *)
  let builds = if trace then 1 else sim_builds in
  let timed_build () =
    let t0 = Clock.s () in
    let cfg =
      if trace then Layers.time "cellsim.scenario_build" (fun () -> Simload.build ~seed)
      else Simload.build ~seed
    in
    (cfg, Clock.s () -. t0)
  in
  let built = List.init builds (fun _ -> timed_build ()) in
  let cfg = fst (List.hd built) in
  let setup_s = Stats.median (Array.of_list (List.map snd built)) in
  (* Determinism: chunk 0 twice must agree on every scheme. *)
  let first = Simload.run_chunk cfg ~seed 0 in
  let again = Simload.run_chunk cfg ~seed 0 in
  let deterministic = Simload.same_outcome first.Simload.result again.Simload.result in
  let chunks =
    let t0 = Clock.s () in
    let enough i =
      if trace then i >= sim_trace_chunks else i >= sim_min_chunks && Clock.s () -. t0 >= float_of_int seconds
    in
    let rec go i acc = if enough i then List.rev acc else go (i + 1) (Simload.run_chunk cfg ~seed i :: acc) in
    go 1 [ first ]
  in
  let calls (c : Simload.chunk) = c.Simload.result.Cellsim.Sim.total_calls in
  let bad = List.filter (fun c -> not (Simload.schemes_agree c.Simload.result)) chunks in
  let attempted = List.fold_left (fun a c -> a + calls c) 0 chunks in
  let failed =
    List.fold_left (fun a c -> a + calls c) 0 bad + if deterministic then 0 else calls first
  in
  if not deterministic then print_endline "failure: two runs of chunk 0 disagree";
  List.iter
    (fun (c : Simload.chunk) ->
      Printf.printf "failure: chunk with seed %d: schemes saw different calls\n" c.Simload.sim_seed)
    bad;
  let wall = List.fold_left (fun a (c : Simload.chunk) -> a +. c.Simload.wall_s) 0.0 chunks in
  let per_call = Array.of_list (List.map (fun c -> c.Simload.wall_s *. 1000.0 /. float_of_int (calls c)) chunks) in
  let scored = List.filteri (fun i _ -> i < sim_min_chunks) chunks in
  let paged =
    List.fold_left
      (fun a (c : Simload.chunk) -> a + (Simload.scheme_metrics c.Simload.result Simload.scored_scheme).Cellsim.Sim.cells_paged)
      0 scored
  in
  let scored_calls = List.fold_left (fun a c -> a + calls c) 0 scored in
  let n = List.length chunks in
  let e2e =
    [
      m ~samples:builds "setup_s" "s" setup_s;
      m ~samples:scored_calls "paged_per_call" "cells" (float_of_int paged /. float_of_int scored_calls);
    ]
  in
  let traced () =
    let shadow_cfg = { cfg with Cellsim.Sim.duration = float_of_int shadow_ticks } in
    let shadow_calls = Simload.shadow shadow_cfg ~ticks:shadow_ticks in
    let reference = Simload.run_chunk shadow_cfg ~seed 0 in
    let per_call_ms name = Layers.total_ms name /. float_of_int (max 1 shadow_calls) in
    let layer_sum = List.fold_left (fun a l -> a +. per_call_ms l) 0.0 Simload.top_layers in
    ([], (layer_sum, reference.Simload.wall_s *. 1000.0 /. float_of_int (calls reference)))
  in
  {
    stamp_extra =
      [ ("scenario", Json.Str "residence-pareto"); ("chunk_ticks", Json.Num cfg.Cellsim.Sim.duration) ];
    notes =
      [
        Printf.sprintf "%d chunks, %d calls in %.3f s of Sim.run; setup over %d builds" n attempted wall builds;
        Printf.sprintf "paged_per_call: %s over the first %d chunks" Simload.scored_scheme (List.length scored);
      ];
    attempted;
    failed;
    e2e;
    timings = timings ~throughput:(float_of_int attempted /. wall) ~samples:attempted per_call;
    traced = (if trace then Some (traced ()) else None);
  }

(* ---------------- report ---------------- *)

(* Workload-specific layer metrics; a workload without the layer (no
   daemon in sim-aging) reports 0. *)
let extra_layers =
  [
    "serve.queue_ms.p50"; "serve.queue_ms.p99"; "serve.exec_ms.p50"; "serve.exec_ms.p99";
    "serve.overhead_ms.p50"; "serve.overhead_ms.p99"; "serve.cache_hit_ratio"; "serve.full_rung_ratio";
    "loadgen.lag_p99_ms";
  ]

let per_layer timings (extra, (layer_sum, e2e)) =
  List.concat_map
    (fun name ->
      let s = Layers.summary name in
      [
        m ~samples:s.Layers.calls (name ^ ".p50_us") "us" s.Layers.p50_us;
        m ~samples:s.Layers.calls (name ^ ".p99_us") "us" s.Layers.p99_us;
        m (name ^ ".minor_words") "words" s.Layers.minor_words;
        m (name ^ ".calls") "count" (float_of_int s.Layers.calls);
      ])
    Layers.functions
  @ List.map
      (fun name ->
        match List.find_opt (fun (x : Record.metric) -> x.Record.name = name) extra with
        | Some x -> x
        | None -> m name (if String.ends_with ~suffix:"ratio" name then "ratio" else "ms") 0.0)
      extra_layers
  @ timings
  @ [ m "coverage.layer_sum_ms" "ms" layer_sum; m "coverage.e2e_ms" "ms" e2e ]

let () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let o =
    match (workload, serve_params workload) with
    | _, Some p -> serve p
    | "sim-aging", None -> sim ()
    | w, None ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  let metrics =
    match o.traced with
    | None -> o.e2e
    | Some t ->
      let _, (layer_sum, e2e) = t in
      Printf.printf "coverage: named layers sum to %.4f ms of %.4f ms end to end per %s (gap %.4f ms)\n"
        layer_sum e2e (if workload = "sim-aging" then "simulated call" else "request, medians") (e2e -. layer_sum);
      per_layer o.timings t
  in
  let stamp = Record.stamp ~workload ~seed ~seconds ~trace ~extra:o.stamp_extra in
  let shown = if trace then [] else o.timings in
  Record.emit ~stamp ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed ~notes:o.notes ~shown metrics
