(* Unit suite for the observability layer (lib/obs) plus the
   cross-domain determinism contract it promises: with metrics enabled,
   every counter and histogram bucket count outside the scheduler
   ([pool_*]) and wall-clock ([*_ms]) namespaces must be identical
   whether the instrumented workload ran on 1 domain or 4.  The
   disabled path must register nothing at all — that is the no-op
   guarantee the bit-identical sequential solver path rests on. *)

open Confcall

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- clock ---------------- *)

let test_now_monotone () =
  let prev = ref (Obs.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.now () in
    check bool_t "clock never goes backwards" true (t >= !prev);
    prev := t
  done

(* ---------------- counters and gauges ---------------- *)

let test_counter_semantics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_enabled m true;
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr m "a";
  Obs.Metrics.add m "a" 5;
  Obs.Metrics.add m "b" 3;
  check int_t "incr+add accumulate" 7 (Obs.Metrics.counter_value m "a");
  check int_t "independent names" 3 (Obs.Metrics.counter_value m "b");
  check int_t "unregistered reads 0" 0 (Obs.Metrics.counter_value m "zzz");
  check bool_t "sorted snapshot" true
    (Obs.Metrics.counters m = [ ("a", 7); ("b", 3) ]);
  Obs.Metrics.reset m;
  check bool_t "reset drops names" true (Obs.Metrics.counters m = []);
  check bool_t "reset keeps enabled" true (Obs.Metrics.enabled m)

let test_gauge_semantics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_enabled m true;
  Obs.Metrics.gauge_set m "g" 10;
  Obs.Metrics.gauge_add m "g" (-3);
  Obs.Metrics.gauge_add m "h" 2;
  check bool_t "set/add and add-from-zero" true
    (Obs.Metrics.gauges m = [ ("g", 7); ("h", 2) ])

let test_disabled_is_noop () =
  let m = Obs.Metrics.create () in
  check bool_t "disabled by default" false (Obs.Metrics.enabled m);
  Obs.Metrics.incr m "a";
  Obs.Metrics.gauge_set m "g" 5;
  Obs.Metrics.observe m "h" 1.0;
  check bool_t "no counters registered" true (Obs.Metrics.counters m = []);
  check bool_t "no gauges registered" true (Obs.Metrics.gauges m = []);
  check bool_t "no histograms registered" true
    (Obs.Metrics.histogram_buckets m = []);
  (* Enable, record, disable: snapshots still readable, ops frozen. *)
  Obs.Metrics.set_enabled m true;
  Obs.Metrics.incr m "a";
  Obs.Metrics.set_enabled m false;
  Obs.Metrics.incr m "a";
  check int_t "disabled ops do not mutate" 1 (Obs.Metrics.counter_value m "a")

let test_kind_mismatch_rejected () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_enabled m true;
  Obs.Metrics.incr m "x";
  (match Obs.Metrics.gauge_set m "x" 1 with
  | () -> Alcotest.fail "counter name reused as gauge"
  | exception Invalid_argument _ -> ());
  Obs.Metrics.observe m ~buckets:[| 1.0; 2.0 |] "h" 0.5;
  match Obs.Metrics.observe m ~buckets:[| 1.0; 3.0 |] "h" 0.5 with
  | () -> Alcotest.fail "histogram re-registered with different buckets"
  | exception Invalid_argument _ -> ()

(* ---------------- histograms ---------------- *)

let test_histogram_buckets () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_enabled m true;
  let buckets = [| 1.0; 2.0; 5.0 |] in
  (* Boundary values land in the bucket whose bound equals them;
     anything above the last bound goes to the overflow bucket. *)
  List.iter
    (Obs.Metrics.observe m ~buckets "h")
    [ 0.5; 1.0; 1.5; 2.0; 5.0; 5.1; 100.0 ];
  match Obs.Metrics.histogram_buckets m with
  | [ ("h", cells) ] ->
    check bool_t "per-bucket counts (overflow last)" true
      (cells = [| 2; 2; 1; 2 |])
  | other ->
    Alcotest.failf "expected one histogram, got %d" (List.length other)

let test_histogram_layouts_increasing () =
  let increasing a =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if a.(i) <= a.(i - 1) then ok := false
    done;
    !ok
  in
  check bool_t "latency_ms_buckets" true (increasing Obs.latency_ms_buckets);
  check bool_t "small_count_buckets" true (increasing Obs.small_count_buckets)

(* ---------------- exposition ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exposition () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_enabled m true;
  Obs.Metrics.incr m "reqs";
  Obs.Metrics.gauge_set m "depth" 3;
  Obs.Metrics.observe m ~buckets:[| 1.0; 2.0 |] "lat" 1.5;
  Obs.Metrics.observe m ~buckets:[| 1.0; 2.0 |] "lat" 9.0;
  let js = Obs.Metrics.to_json m in
  List.iter
    (fun frag -> check bool_t ("json has " ^ frag) true (contains js frag))
    [
      {|"counters": {"reqs": 1}|};
      {|"gauges": {"depth": 3}|};
      {|"count": 2|};
      (* JSON buckets are cumulative, +Inf spelled as a string. *)
      {|{"le": 2, "count": 1}|};
      {|{"le": "+Inf", "count": 2}|};
    ];
  let prom = Obs.Metrics.to_prometheus m in
  List.iter
    (fun frag -> check bool_t ("prom has " ^ frag) true (contains prom frag))
    [
      "# TYPE reqs counter";
      "reqs 1";
      "# TYPE depth gauge";
      "# TYPE lat histogram";
      {|lat_bucket{le="2"} 1|};
      {|lat_bucket{le="+Inf"} 2|};
      "lat_count 2";
    ]

(* Both JSON documents parse whatever was recorded: a non-finite
   histogram sum, a span name that needs escapes; a span's start time
   comes back bit for bit, and Prometheus spells a non-finite sum its
   own way. *)
let test_json_any_value () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_enabled m true;
  Obs.Metrics.observe m "inf" infinity;
  Obs.Metrics.observe m "nan" nan;
  (match Wire.Json.parse (Obs.Metrics.to_json m) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "metrics JSON rejected: %s" e);
  let prom = Obs.Metrics.to_prometheus m in
  List.iter
    (fun frag -> check bool_t ("prom has " ^ frag) true (contains prom frag))
    [ "inf_sum +Inf\n"; "nan_sum NaN\n" ];
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t true;
  let name = "a\tb\"c" in
  Obs.Trace.with_span t name (fun _ -> ());
  let start_s = (List.hd (Obs.Trace.spans t)).Obs.Trace.start_s in
  match Wire.Json.parse (Obs.Trace.to_json t) with
  | Error e -> Alcotest.failf "trace JSON rejected: %s" e
  | Ok js -> (
    match Wire.Json.member "spans" js with
    | Some (Wire.Json.Arr [ span ]) ->
      let field k f = Option.bind (Wire.Json.member k span) f in
      check (Alcotest.option string_t) "name" (Some name)
        (field "name" Wire.Json.to_str);
      check (Alcotest.option Alcotest.int64) "start_s bits"
        (Some (Int64.bits_of_float start_s))
        (Option.map Int64.bits_of_float (field "start_s" Wire.Json.to_num))
    | _ -> Alcotest.fail "expected one span")

let test_sanitize () =
  check string_t "spec chars mapped" "bandwidth_80"
    (Obs.sanitize "bandwidth-80");
  check string_t "colon kept" "robust_0_05:0_1" (Obs.sanitize "robust-0.05:0.1");
  check string_t "leading digit prefixed" "_9lives" (Obs.sanitize "9lives")

(* ---------------- tracer ---------------- *)

let test_span_nesting () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t true;
  let r =
    Obs.Trace.with_span t "outer" (fun outer ->
        check bool_t "root gets a real id" true (outer >= 0);
        let a =
          Obs.Trace.with_span t ~parent:outer "child_a" (fun _ -> 1)
        in
        let b =
          Obs.Trace.with_span t ~parent:outer "child_b" (fun _ -> 2)
        in
        a + b)
  in
  check int_t "with_span returns f's value" 3 r;
  (* Spans record even when the body raises. *)
  (try Obs.Trace.with_span t "boom" (fun _ -> failwith "x") with Failure _ -> ());
  let spans = Obs.Trace.spans t in
  check int_t "four spans" 4 (List.length spans);
  let by_name n =
    List.find (fun s -> s.Obs.Trace.name = n) spans
  in
  let outer = by_name "outer" in
  check int_t "outer is a root" Obs.Trace.no_parent outer.Obs.Trace.parent;
  List.iter
    (fun n ->
      check int_t (n ^ " parented to outer") outer.Obs.Trace.id
        (by_name n).Obs.Trace.parent)
    [ "child_a"; "child_b" ];
  List.iter
    (fun s ->
      check bool_t (s.Obs.Trace.name ^ " stop >= start") true
        (s.Obs.Trace.stop_s >= s.Obs.Trace.start_s))
    spans;
  (* Children run inside the parent's window. *)
  List.iter
    (fun n ->
      let c = by_name n in
      check bool_t (n ^ " inside outer") true
        (c.Obs.Trace.start_s >= outer.Obs.Trace.start_s
        && c.Obs.Trace.stop_s <= outer.Obs.Trace.stop_s))
    [ "child_a"; "child_b" ]

let test_span_disabled () =
  let t = Obs.Trace.create () in
  let seen = ref 42 in
  let r = Obs.Trace.with_span t "off" (fun id -> seen := id; "v") in
  check string_t "body still runs" "v" r;
  check int_t "callback sees no_parent" Obs.Trace.no_parent !seen;
  check bool_t "nothing recorded" true (Obs.Trace.spans t = [])

(* ---------------- cross-domain determinism ---------------- *)

(* Everything outside pool_* and *_ms is part of the determinism
   contract; the exemptions are scheduler decisions and wall-clock. *)
let deterministic_snapshot m =
  let keep n = not (String.length n >= 5 && String.sub n 0 5 = "pool_") in
  let is_ms n =
    let l = String.length n in
    l >= 3 && String.sub n (l - 3) 3 = "_ms"
  in
  ( List.filter (fun (n, _) -> keep n) (Obs.Metrics.counters m),
    Obs.Metrics.histogram_buckets m
    |> List.filter (fun (n, _) -> keep n && not (is_ms n))
    |> List.map (fun (n, cells) -> (n, Array.to_list cells)) )

let with_enabled_default f =
  let m = Obs.Metrics.default in
  Obs.Metrics.reset m;
  Obs.Metrics.set_enabled m true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled m false;
      Obs.Metrics.reset m)
    (fun () ->
      f ();
      deterministic_snapshot m)

let snapshots_equal name workload =
  let snap d = with_enabled_default (fun () -> workload d) in
  let s1 = snap 1 and s4 = snap 4 in
  check bool_t (name ^ ": counters equal across domains 1/4") true
    (fst s1 = fst s4);
  check bool_t (name ^ ": histogram buckets equal across domains 1/4") true
    (snd s1 = snd s4);
  check bool_t (name ^ ": snapshot non-empty") true (fst s1 <> [])

let test_runner_counters_deterministic () =
  (* Uncertainty re-ranking scores every stage in both the sequential
     and the raced path, so the executed stage multiset is identical. *)
  let rng = Prob.Rng.create ~seed:9301 in
  let inst = Instance.random_uniform_simplex rng ~m:4 ~c:90 ~d:4 in
  let chain = Solver.[ Local_search; Greedy; Bandwidth_limited 60 ] in
  let u = Uncertainty.uniform 0.01 in
  snapshots_equal "runner" (fun d ->
      Exec.Pool.with_pool_opt ~domains:d (fun pool ->
          ignore (Runner.run ~chain ~uncertainty:u ?pool inst)))

let test_sweep_counters_deterministic () =
  let items =
    List.init 6 (fun k ->
        let seed = 9400 + k in
        {
          Sweep.id = Printf.sprintf "obs/seed%d" seed;
          compute =
            (fun () ->
              let rng = Prob.Rng.create ~seed in
              let inst = Instance.random_uniform_simplex rng ~m:3 ~c:300 ~d:4 in
              let o = Solver.solve Solver.Greedy inst in
              Printf.sprintf "%.9f" o.Solver.expected_paging);
        })
  in
  snapshots_equal "sweep" (fun d ->
      let path = Filename.temp_file "confcall_obs" ".journal" in
      Sys.remove path;
      let journal = Journal.load_or_create path in
      Fun.protect
        ~finally:(fun () ->
          Journal.close journal;
          Sys.remove path)
        (fun () ->
          Exec.Pool.with_pool_opt ~domains:d (fun pool ->
              ignore (Sweep.run ?pool ~journal items))))

let test_sim_counters_deterministic () =
  let cfg =
    { (Cellsim.Sim.default_config ()) with Cellsim.Sim.duration = 40.0 }
  in
  snapshots_equal "sim" (fun d ->
      Exec.Pool.with_pool_opt ~domains:d (fun pool ->
          ignore (Cellsim.Replicate.run_summary ?pool ~replicas:3 cfg)))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "clock monotone" `Quick test_now_monotone;
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "disabled registry is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "kind/bucket mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "shared layouts strictly increasing" `Quick
            test_histogram_layouts_increasing;
          Alcotest.test_case "JSON and Prometheus exposition" `Quick
            test_exposition;
          Alcotest.test_case "name sanitisation" `Quick test_sanitize;
          Alcotest.test_case "JSON valid for any recorded value" `Quick
            test_json_any_value;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and windows" `Quick
            test_span_nesting;
          Alcotest.test_case "disabled tracer is a no-op" `Quick
            test_span_disabled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "runner counters, domains 1 vs 4" `Quick
            test_runner_counters_deterministic;
          Alcotest.test_case "sweep counters, domains 1 vs 4" `Quick
            test_sweep_counters_deterministic;
          Alcotest.test_case "sim counters, domains 1 vs 4" `Quick
            test_sim_counters_deterministic;
        ] );
    ]
