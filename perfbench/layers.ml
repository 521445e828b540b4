(* Per-layer timing for the traced runs: each layer's public function is
   called on the workload's own inputs, one call at a time, with its
   wall time (monotonic ns) and minor-heap words recorded around the
   call. These spans come from the benchmark's files; nothing inside the
   program is instrumented. *)

open Confcall
module Json = Wire.Json

(* Every timed function, in report order; each yields
   <name>.{p50_us,p99_us,minor_words,calls}. *)
let functions =
  [
    "wire.encode_request"; "wire.decode_request"; "wire.encode_response";
    "wire.decode_response"; "core.instance_of_string"; "core.canonical_key";
    "core.flat_prepare"; "core.flat_run_greedy"; "core.flat_run_hill_climb";
    "core.solver_solve"; "core.runner_run"; "core.robust_ep";
    "cellsim.scenario_build"; "cellsim.mobility_semi_step";
    "cellsim.profile_observe"; "cellsim.profile_aged_over";
    "cellsim.call_solve"; "cellsim.page_cost";
  ]

type acc = { us : Stats.Samples.t; mutable words : float; mutable calls : int }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    if not (List.mem name functions) then invalid_arg ("Layers: unknown layer " ^ name);
    let a = { us = Stats.Samples.create (); words = 0.0; calls = 0 } in
    Hashtbl.add table name a;
    a

let time name f =
  let a = acc name in
  let w0 = Gc.minor_words () in
  let t0 = Clock.ns () in
  let r = f () in
  let t1 = Clock.ns () in
  let w1 = Gc.minor_words () in
  Stats.Samples.add a.us (float_of_int (t1 - t0) /. 1000.0);
  a.words <- a.words +. (w1 -. w0);
  a.calls <- a.calls + 1;
  r

(* A layer's summary; an idle layer (no call on this workload) reads 0
   everywhere. *)
type summary = { p50_us : float; p99_us : float; minor_words : float; calls : int }

let summary name =
  match Hashtbl.find_opt table name with
  | Some a when a.calls > 0 ->
    let s = Stats.sorted (Stats.Samples.to_array a.us) in
    {
      p50_us = Stats.percentile_sorted s 50.0;
      p99_us = Stats.percentile_sorted s 99.0;
      minor_words = a.words /. float_of_int a.calls;
      calls = a.calls;
    }
  | _ -> { p50_us = 0.0; p99_us = 0.0; minor_words = 0.0; calls = 0 }

(* Total time spent in a layer, in ms. *)
let total_ms name =
  match Hashtbl.find_opt table name with
  | Some a -> Array.fold_left ( +. ) 0.0 (Stats.Samples.to_array a.us) /. 1000.0
  | None -> 0.0

(* ---- one served request, layer by layer ----

   The daemon's request path, replayed in process: the client encodes
   the frame, the daemon decodes it, parses the instance, keys the
   cache, solves on its direct path ([Solver.solve], no arena) or its
   chain path ([Runner.run] on a lane arena), encodes the answer, and
   the client decodes the reply it actually received. [flat_prepare],
   [flat_run_greedy] and (for chains that climb) [flat_run_hill_climb]
   decompose the arena work on a separate arena. *)

let split_arena = Flat.create ()
let lane_arena = Flat.create ()

let served (r : Gen.req) ~reply =
  let id = "t" ^ string_of_int r.Gen.idx in
  let frame = Gen.request_json ~id r and text = Gen.text r in
  let line = time "wire.encode_request" (fun () -> Json.to_string frame) in
  ignore (time "wire.decode_request" (fun () -> Wire.Proto.decode line));
  let inst = time "core.instance_of_string" (fun () -> Instance.of_string text) in
  let objective = Check.parse_objective r.Gen.objective in
  ignore (time "core.canonical_key" (fun () -> Signature.canonical_key ~objective inst));
  time "core.flat_prepare" (fun () -> Flat.prepare ~objective split_arena inst);
  time "core.flat_run_greedy" (fun () -> Flat.run_greedy split_arena);
  let spec, (o : Solver.outcome) =
    match r.Gen.path with
    | Gen.Direct s ->
      let spec = Check.ok_or_fail (Solver.spec_of_string s) in
      (spec, time "core.solver_solve" (fun () -> Solver.solve ~objective spec inst))
    | Gen.Chain c ->
      let chain = Check.ok_or_fail (Runner.chain_of_string c) in
      if List.mem Solver.Local_search chain then
        time "core.flat_run_hill_climb" (fun () -> Flat.run_hill_climb split_arena);
      let report = time "core.runner_run" (fun () -> Runner.run ~objective ~chain ~arena:lane_arena inst) in
      Option.get report.Runner.winner
  in
  let num x = Json.Num x in
  let fields =
    [
      ("solver", Json.Str (Solver.spec_to_string spec));
      ( "strategy",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun g -> Json.Arr (Array.to_list (Array.map (fun c -> num (float_of_int c)) g)))
                (Strategy.groups o.Solver.strategy))) );
      ("expected_paging", num o.Solver.expected_paging);
      ("exact", Json.Bool o.Solver.exact);
      ("ladder", Json.Str "full");
      ("queue_ms", num 0.0);
      ("elapsed_ms", num 0.0);
      ("cache", Json.Str "miss");
    ]
  in
  ignore (time "wire.encode_response" (fun () -> Wire.Proto.frame ~id ~status:"ok" fields));
  Option.iter (fun l -> ignore (time "wire.decode_response" (fun () -> Wire.Proto.decode_response l))) reply
