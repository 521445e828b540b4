(* Tests for the cellular-system simulator substrate. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps
let qt = QCheck_alcotest.to_alcotest

(* -------------------- Heap -------------------- *)

let test_heap_ordering () =
  let h = Cellsim.Heap.create () in
  List.iter
    (fun (p, v) -> Cellsim.Heap.push h ~priority:p v)
    [ 5.0, "e"; 1.0, "a"; 3.0, "c"; 2.0, "b"; 4.0, "d" ];
  check int_t "length" 5 (Cellsim.Heap.length h);
  let order = ref [] in
  let rec drain () =
    match Cellsim.Heap.pop h with
    | None -> ()
    | Some (_, v) ->
      order := v :: !order;
      drain ()
  in
  drain ();
  check Alcotest.(list string) "sorted" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order)

let test_heap_peek () =
  let h = Cellsim.Heap.create () in
  check bool_t "empty peek" true (Cellsim.Heap.peek h = None);
  Cellsim.Heap.push h ~priority:2.0 20;
  Cellsim.Heap.push h ~priority:1.0 10;
  check bool_t "peek min" true (Cellsim.Heap.peek h = Some (1.0, 10));
  check int_t "peek preserves" 2 (Cellsim.Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 0 50) (QCheck.int_range 0 1000))
    (fun l ->
      let h = Cellsim.Heap.create () in
      List.iter (fun x -> Cellsim.Heap.push h ~priority:(float_of_int x) x) l;
      let rec drain acc =
        match Cellsim.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.sort compare l)

(* -------------------- Hex -------------------- *)

let test_hex_indexing () =
  let h = Cellsim.Hex.create ~rows:3 ~cols:4 in
  check int_t "cells" 12 (Cellsim.Hex.cells h);
  check int_t "index" 6 (Cellsim.Hex.index h ~row:1 ~col:2);
  check bool_t "coords roundtrip" true (Cellsim.Hex.coords h 6 = (1, 2))

let test_hex_neighbors_interior () =
  let h = Cellsim.Hex.create ~rows:5 ~cols:5 in
  let center = Cellsim.Hex.index h ~row:2 ~col:2 in
  check int_t "six neighbors" 6 (List.length (Cellsim.Hex.neighbors h center))

let test_hex_neighbors_corner () =
  let h = Cellsim.Hex.create ~rows:3 ~cols:3 in
  let corner = Cellsim.Hex.index h ~row:0 ~col:0 in
  let n = List.length (Cellsim.Hex.neighbors h corner) in
  check bool_t "corner degree" true (n >= 2 && n <= 3)

let test_hex_neighbors_symmetric () =
  let h = Cellsim.Hex.create ~rows:4 ~cols:5 in
  for cell = 0 to Cellsim.Hex.cells h - 1 do
    List.iter
      (fun n ->
        check bool_t "symmetric" true
          (List.mem cell (Cellsim.Hex.neighbors h n)))
      (Cellsim.Hex.neighbors h cell)
  done

(* Neighbour lists come out strictly ascending (the walks write their
   rows in that order), on one cell, both strips and two fields. *)
let test_hex_neighbors_ascending () =
  List.iter
    (fun (rows, cols) ->
      let h = Cellsim.Hex.create ~rows ~cols in
      for cell = 0 to Cellsim.Hex.cells h - 1 do
        let rec ascending = function
          | a :: (b :: _ as rest) -> a < b && ascending rest
          | _ -> true
        in
        let ns = Cellsim.Hex.neighbors h cell in
        if not (ascending ns) then
          Alcotest.failf "%dx%d: neighbours of cell %d not ascending: [%s]"
            rows cols cell
            (String.concat "; " (List.map string_of_int ns))
      done)
    [ (1, 1); (1, 6); (6, 1); (7, 9); (8, 8) ]

let test_hex_distance () =
  let h = Cellsim.Hex.create ~rows:5 ~cols:5 in
  let a = Cellsim.Hex.index h ~row:0 ~col:0 in
  check int_t "self" 0 (Cellsim.Hex.distance h a a);
  List.iter
    (fun n -> check int_t "neighbor distance" 1 (Cellsim.Hex.distance h a n))
    (Cellsim.Hex.neighbors h a)

let test_hex_distance_triangle () =
  let h = Cellsim.Hex.create ~rows:4 ~cols:4 in
  let n = Cellsim.Hex.cells h in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      for c = 0 to n - 1 do
        let d = Cellsim.Hex.distance h in
        check bool_t "triangle" true (d a c <= d a b + d b c)
      done
    done
  done

let test_hex_disk () =
  let h = Cellsim.Hex.create ~rows:5 ~cols:5 in
  let center = Cellsim.Hex.index h ~row:2 ~col:2 in
  let d0 = Cellsim.Hex.disk h center ~radius:0 in
  check Alcotest.(list int) "radius 0" [ center ] d0;
  let d1 = Cellsim.Hex.disk h center ~radius:1 in
  check int_t "radius 1 is center + neighbors" 7 (List.length d1)

(* The full scan [Hex.disk] replaced: every cell, by hex distance. *)
let disk_by_scan h center ~radius =
  List.filter
    (fun cell -> Cellsim.Hex.distance h center cell <= radius)
    (List.init (Cellsim.Hex.cells h) Fun.id)

let test_hex_disk_matches_scan () =
  List.iter
    (fun (rows, cols) ->
      let h = Cellsim.Hex.create ~rows ~cols in
      for center = 0 to Cellsim.Hex.cells h - 1 do
        for radius = 0 to rows + cols + 1 do
          check
            Alcotest.(list int)
            (Printf.sprintf "%dx%d center %d radius %d" rows cols center radius)
            (disk_by_scan h center ~radius)
            (Cellsim.Hex.disk h center ~radius)
        done
      done)
    [ (1, 1); (1, 6); (6, 1); (7, 9); (8, 8) ]

(* -------------------- Mobility -------------------- *)

let hex44 () = Cellsim.Hex.create ~rows:4 ~cols:4

let mobility_rows m =
  Array.init (Cellsim.Mobility.cells m) (Cellsim.Mobility.row m)

let test_mobility_random_walk_stochastic () =
  let m = Cellsim.Mobility.random_walk (hex44 ()) ~stay:0.3 in
  Array.iter
    (fun row ->
      check (float_t 1e-9) "row sum" 1.0 (Array.fold_left ( +. ) 0.0 row))
    (mobility_rows m)

let test_mobility_step_moves_to_neighbor_or_stays () =
  let hex = hex44 () in
  let m = Cellsim.Mobility.random_walk hex ~stay:0.3 in
  let rng = Prob.Rng.create ~seed:11 in
  for _ = 1 to 200 do
    let cell = Prob.Rng.int rng (Cellsim.Hex.cells hex) in
    let next = Cellsim.Mobility.step m rng ~cell in
    check bool_t "adjacent or same" true
      (next = cell || List.mem next (Cellsim.Hex.neighbors hex cell))
  done

let test_mobility_stationary_is_fixed_point () =
  let m = Cellsim.Mobility.random_walk (hex44 ()) ~stay:0.2 in
  let pi = Cellsim.Mobility.stationary m in
  check bool_t "distribution" true (Prob.Dist.is_distribution pi);
  let pushed = Cellsim.Mobility.diffuse m pi ~steps:1 in
  check bool_t "fixed point" true (Prob.Dist.total_variation pi pushed < 1e-8)

let test_mobility_drift_moves_east () =
  let hex = Cellsim.Hex.create ~rows:3 ~cols:8 in
  let m = Cellsim.Mobility.drift_walk hex ~stay:0.1 ~east_bias:5.0 in
  let pi = Cellsim.Mobility.stationary m in
  (* Stationary mass in the eastern half should dominate. *)
  let east = ref 0.0 and west = ref 0.0 in
  Array.iteri
    (fun cell p ->
      let _, col = Cellsim.Hex.coords hex cell in
      if col >= 4 then east := !east +. p else west := !west +. p)
    pi;
  check bool_t "east heavier" true (!east > !west)

let test_mobility_teleport () =
  let hex = hex44 () in
  let base = Cellsim.Mobility.random_walk hex ~stay:0.5 in
  let target = Prob.Dist.point_mass ~eps:0.001 (Cellsim.Hex.cells hex) 0 in
  let m = Cellsim.Mobility.teleport base ~jump:0.5 ~target in
  Array.iter
    (fun row ->
      check (float_t 1e-9) "row sum" 1.0 (Array.fold_left ( +. ) 0.0 row))
    (mobility_rows m);
  (* Cell 0 must now be reachable from everywhere. *)
  Array.iter
    (fun row -> check bool_t "jump mass" true (row.(0) > 0.4))
    (mobility_rows m)

let test_mobility_diffuse_spreads () =
  let hex = hex44 () in
  let m = Cellsim.Mobility.random_walk hex ~stay:0.2 in
  let point = Prob.Dist.point_mass ~eps:1e-9 (Cellsim.Hex.cells hex) 5 in
  let after = Cellsim.Mobility.diffuse m point ~steps:3 in
  check bool_t "entropy grows" true
    (Prob.Dist.entropy after > Prob.Dist.entropy point)

(* -------------------- Profile -------------------- *)

let test_profile_counts () =
  let p = Cellsim.Profile.create ~cells:4 ~decay:1.0 ~smoothing:0.01 in
  Cellsim.Profile.observe p 2;
  Cellsim.Profile.observe p 2;
  Cellsim.Profile.observe p 1;
  check int_t "observations" 3 (Cellsim.Profile.observations p);
  let d = Cellsim.Profile.distribution p in
  check bool_t "is distribution" true (Prob.Dist.is_distribution d);
  check bool_t "mode at 2" true (d.(2) > d.(1) && d.(1) > d.(0))

let test_profile_decay_forgets () =
  let p = Cellsim.Profile.create ~cells:3 ~decay:0.5 ~smoothing:0.001 in
  for _ = 1 to 10 do
    Cellsim.Profile.observe p 0
  done;
  for _ = 1 to 3 do
    Cellsim.Profile.observe p 2
  done;
  let d = Cellsim.Profile.distribution p in
  check bool_t "recent cell dominates" true (d.(2) > d.(0))

let test_profile_distribution_over () =
  let p = Cellsim.Profile.create ~cells:5 ~decay:1.0 ~smoothing:0.1 in
  Cellsim.Profile.observe p 1;
  Cellsim.Profile.observe p 3;
  let d = Cellsim.Profile.distribution_over p [| 1; 3 |] in
  check int_t "restricted size" 2 (Array.length d);
  check (float_t 1e-9) "renormalized" 1.0 (Array.fold_left ( +. ) 0.0 d)

let test_profile_copy_independent () =
  let p = Cellsim.Profile.create ~cells:3 ~decay:1.0 ~smoothing:0.1 in
  Cellsim.Profile.observe p 0;
  let p2 = Cellsim.Profile.copy p in
  Cellsim.Profile.observe p2 1;
  check int_t "original untouched" 1 (Cellsim.Profile.observations p);
  check int_t "copy advanced" 2 (Cellsim.Profile.observations p2)

(* -------------------- Location areas -------------------- *)

let test_la_grid_partition () =
  let hex = Cellsim.Hex.create ~rows:6 ~cols:6 in
  let la = Cellsim.Location_area.grid hex ~block_rows:3 ~block_cols:3 in
  check int_t "areas" 4 (Cellsim.Location_area.areas la);
  (* Partition: every cell in exactly one area. *)
  let seen = Array.make (Cellsim.Hex.cells hex) 0 in
  for a = 0 to Cellsim.Location_area.areas la - 1 do
    Array.iter
      (fun cell -> seen.(cell) <- seen.(cell) + 1)
      (Cellsim.Location_area.cells_of_area la a)
  done;
  Array.iter (fun n -> check int_t "exactly once" 1 n) seen

(* Blocks that do not divide the field: edge blocks are cut short, ids
   run row-major by block, and each area lists its cells ascending. *)
let test_la_grid_uneven () =
  let layout rows cols ~block_rows ~block_cols =
    Cellsim.Location_area.grid
      (Cellsim.Hex.create ~rows ~cols)
      ~block_rows ~block_cols
  in
  let pin name la area_of members =
    check Alcotest.(array int) (name ^ ": area_of") area_of
      la.Cellsim.Location_area.area_of;
    check Alcotest.(array (array int)) (name ^ ": members") members
      la.Cellsim.Location_area.members
  in
  pin "7x10, 3x4 blocks"
    (layout 7 10 ~block_rows:3 ~block_cols:4)
    [|
      0; 0; 0; 0; 1; 1; 1; 1; 2; 2;
      0; 0; 0; 0; 1; 1; 1; 1; 2; 2;
      0; 0; 0; 0; 1; 1; 1; 1; 2; 2;
      3; 3; 3; 3; 4; 4; 4; 4; 5; 5;
      3; 3; 3; 3; 4; 4; 4; 4; 5; 5;
      3; 3; 3; 3; 4; 4; 4; 4; 5; 5;
      6; 6; 6; 6; 7; 7; 7; 7; 8; 8;
    |]
    [|
      [| 0; 1; 2; 3; 10; 11; 12; 13; 20; 21; 22; 23 |];
      [| 4; 5; 6; 7; 14; 15; 16; 17; 24; 25; 26; 27 |];
      [| 8; 9; 18; 19; 28; 29 |];
      [| 30; 31; 32; 33; 40; 41; 42; 43; 50; 51; 52; 53 |];
      [| 34; 35; 36; 37; 44; 45; 46; 47; 54; 55; 56; 57 |];
      [| 38; 39; 48; 49; 58; 59 |];
      [| 60; 61; 62; 63 |];
      [| 64; 65; 66; 67 |];
      [| 68; 69 |];
    |];
  pin "1x5, 2x2 blocks"
    (layout 1 5 ~block_rows:2 ~block_cols:2)
    [| 0; 0; 1; 1; 2 |]
    [| [| 0; 1 |]; [| 2; 3 |]; [| 4 |] |]

let test_la_crossing () =
  let hex = Cellsim.Hex.create ~rows:4 ~cols:4 in
  let la = Cellsim.Location_area.grid hex ~block_rows:2 ~block_cols:2 in
  let a = Cellsim.Hex.index hex ~row:0 ~col:0 in
  let b = Cellsim.Hex.index hex ~row:0 ~col:1 in
  let c = Cellsim.Hex.index hex ~row:0 ~col:2 in
  check bool_t "same block" false
    (Cellsim.Location_area.crossing la ~from_cell:a ~to_cell:b);
  check bool_t "different block" true
    (Cellsim.Location_area.crossing la ~from_cell:b ~to_cell:c)

let test_la_single_and_per_cell () =
  let hex = Cellsim.Hex.create ~rows:3 ~cols:3 in
  check int_t "single" 1
    (Cellsim.Location_area.areas (Cellsim.Location_area.single hex));
  check int_t "per-cell" 9
    (Cellsim.Location_area.areas (Cellsim.Location_area.per_cell hex))

(* -------------------- Event engine -------------------- *)

let test_event_ordering_and_clock () =
  let e = Cellsim.Event.create () in
  Cellsim.Event.schedule e ~at:3.0 "c";
  Cellsim.Event.schedule e ~at:1.0 "a";
  Cellsim.Event.schedule e ~at:2.0 "b";
  let log = ref [] in
  Cellsim.Event.run_until e ~stop:10.0 (fun at v -> log := (at, v) :: !log);
  check
    Alcotest.(list (pair (float 0.0) string))
    "ordered"
    [ 1.0, "a"; 2.0, "b"; 3.0, "c" ]
    (List.rev !log);
  check (float_t 1e-12) "clock" 3.0 (Cellsim.Event.now e)

let test_event_stop_leaves_future () =
  let e = Cellsim.Event.create () in
  Cellsim.Event.schedule e ~at:1.0 "a";
  Cellsim.Event.schedule e ~at:5.0 "late";
  let count = ref 0 in
  Cellsim.Event.run_until e ~stop:2.0 (fun _ _ -> incr count);
  check int_t "only early" 1 !count;
  check int_t "late pending" 1 (Cellsim.Event.pending e)

let test_event_rejects_past () =
  let e = Cellsim.Event.create () in
  Cellsim.Event.schedule e ~at:2.0 ();
  ignore (Cellsim.Event.next e);
  match Cellsim.Event.schedule e ~at:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "past accepted"

let test_event_cascade () =
  (* Handlers can schedule new events. *)
  let e = Cellsim.Event.create () in
  Cellsim.Event.schedule e ~at:1.0 3;
  let total = ref 0 in
  Cellsim.Event.run_until e ~stop:100.0 (fun _ k ->
      incr total;
      if k > 0 then Cellsim.Event.schedule_after e ~delay:1.0 (k - 1));
  check int_t "chain of events" 4 !total

(* -------------------- Traffic -------------------- *)

let test_traffic_group_distinct () =
  let t =
    Cellsim.Traffic.create ~rate:1.0 ~group_size:(Cellsim.Traffic.Fixed 5)
      ~users:20
  in
  let rng = Prob.Rng.create ~seed:13 in
  for _ = 1 to 100 do
    let g = Cellsim.Traffic.draw_group t rng in
    check int_t "size" 5 (Array.length g);
    let sorted = Array.copy g in
    Array.sort compare sorted;
    for i = 0 to 3 do
      check bool_t "distinct" true (sorted.(i) <> sorted.(i + 1))
    done;
    Array.iter (fun u -> check bool_t "in range" true (u >= 0 && u < 20)) g
  done

let test_traffic_interarrival_mean () =
  let t =
    Cellsim.Traffic.create ~rate:4.0 ~group_size:(Cellsim.Traffic.Fixed 2)
      ~users:10
  in
  let rng = Prob.Rng.create ~seed:17 in
  let acc = Prob.Stats.Acc.create () in
  for _ = 1 to 30_000 do
    Prob.Stats.Acc.add acc (Cellsim.Traffic.next_arrival t rng)
  done;
  check bool_t "mean 1/rate" true (abs_float (Prob.Stats.Acc.mean acc -. 0.25) < 0.01)

let test_traffic_size_ranges () =
  let rng = Prob.Rng.create ~seed:19 in
  let t =
    Cellsim.Traffic.create ~rate:1.0
      ~group_size:(Cellsim.Traffic.Uniform_range (2, 4)) ~users:10
  in
  for _ = 1 to 200 do
    let n = Array.length (Cellsim.Traffic.draw_group t rng) in
    check bool_t "in range" true (n >= 2 && n <= 4)
  done;
  let t2 =
    Cellsim.Traffic.create ~rate:1.0
      ~group_size:(Cellsim.Traffic.Geometric_capped (0.5, 6)) ~users:10
  in
  for _ = 1 to 200 do
    let n = Array.length (Cellsim.Traffic.draw_group t2 rng) in
    check bool_t "capped" true (n >= 1 && n <= 6)
  done

(* -------------------- End-to-end simulation -------------------- *)

let small_config () =
  let hex = Cellsim.Hex.create ~rows:4 ~cols:4 in
  {
    Cellsim.Sim.hex;
    mobility = Cellsim.Mobility.random_walk hex ~stay:0.4;
    areas = Cellsim.Location_area.grid hex ~block_rows:2 ~block_cols:2;
    users = 12;
    traffic =
      Cellsim.Traffic.create ~rate:0.4 ~group_size:(Cellsim.Traffic.Fixed 2)
        ~users:12;
    schemes = [ Cellsim.Sim.Blanket; Cellsim.Sim.Selective 2; Cellsim.Sim.Selective 3 ];
    reporting = Cellsim.Reporting.Area;
    mobility_schedule = [];
    call_duration = 0.0;
    track_ongoing = true;
    faults = None;
    estimator = Cellsim.Sim.Live;
    aging = None;
    profile_decay = 0.9;
    profile_smoothing = 0.05;
    duration = 150.0;
    seed = 77;
  }

let test_sim_runs_and_is_deterministic () =
  let r1 = Cellsim.Sim.run (small_config ()) in
  let r2 = Cellsim.Sim.run (small_config ()) in
  check bool_t "calls happened" true (r1.Cellsim.Sim.total_calls > 10);
  check int_t "same calls" r1.Cellsim.Sim.total_calls r2.Cellsim.Sim.total_calls;
  check int_t "same updates" r1.Cellsim.Sim.updates r2.Cellsim.Sim.updates;
  List.iter2
    (fun a b ->
      check int_t "same cells paged" a.Cellsim.Sim.cells_paged
        b.Cellsim.Sim.cells_paged)
    r1.Cellsim.Sim.per_scheme r2.Cellsim.Sim.per_scheme

let test_sim_selective_beats_blanket () =
  let r = Cellsim.Sim.run (small_config ()) in
  let find scheme =
    List.find (fun s -> s.Cellsim.Sim.scheme = scheme) r.Cellsim.Sim.per_scheme
  in
  let blanket = find Cellsim.Sim.Blanket in
  let selective = find (Cellsim.Sim.Selective 2) in
  check bool_t "selective pages fewer cells" true
    (selective.Cellsim.Sim.cells_paged < blanket.Cellsim.Sim.cells_paged);
  check bool_t "but uses more rounds" true
    (selective.Cellsim.Sim.rounds_used >= blanket.Cellsim.Sim.rounds_used)

let test_sim_deeper_delay_pages_less () =
  let r = Cellsim.Sim.run (small_config ()) in
  let find scheme =
    List.find (fun s -> s.Cellsim.Sim.scheme = scheme) r.Cellsim.Sim.per_scheme
  in
  let d2 = find (Cellsim.Sim.Selective 2) in
  let d3 = find (Cellsim.Sim.Selective 3) in
  check bool_t "expected paging decreases with d" true
    (d3.Cellsim.Sim.expected_paging <= d2.Cellsim.Sim.expected_paging +. 1e-6)

(* -------------------- Fault injection -------------------- *)

let with_faults faults config = { config with Cellsim.Sim.faults }

let test_sim_none_faults_identity () =
  (* [faults = Some Faults.none] must reproduce the clean run exactly:
     the fault executor consumes no extra randomness when every fault
     probability is zero and q = 1. Structural equality pins every
     metric, including the per-call float summaries. *)
  let clean = Cellsim.Sim.run (small_config ()) in
  let wired =
    Cellsim.Sim.run (with_faults (Some Cellsim.Faults.none) (small_config ()))
  in
  check bool_t "identical results" true (clean = wired)

let test_sim_zero_faults_with_retry_identity () =
  (* A retry policy alone changes nothing when no fault can fire: every
     device is found in the base rounds, so no retry cycle runs. *)
  List.iter
    (fun retry ->
      let faults = Some { Cellsim.Faults.none with Cellsim.Faults.retry } in
      let r = Cellsim.Sim.run (with_faults faults (small_config ())) in
      let clean = Cellsim.Sim.run (small_config ()) in
      check bool_t
        (Printf.sprintf "retry %s is inert"
           (Cellsim.Faults.retry_to_string retry))
        true (r = clean))
    [
      Cellsim.Faults.Repeat { cycles = 2; backoff = 1 };
      Cellsim.Faults.Escalate { after = 1; to_blanket = true };
    ]

let faulty_config () =
  with_faults
    (Some
       {
         Cellsim.Faults.page_loss = 0.1;
         detect_q = 0.8;
         outage_rate = 0.01;
         outage_repair = 5.0;
         report_loss = 0.2;
         report_delay = 1.5;
         retry = Cellsim.Faults.Escalate { after = 1; to_blanket = true };
       })
    (small_config ())

let test_sim_faulty_run_deterministic () =
  let r1 = Cellsim.Sim.run (faulty_config ()) in
  let r2 = Cellsim.Sim.run (faulty_config ()) in
  check bool_t "bitwise repeatable" true (r1 = r2);
  check bool_t "faults fired" true
    (r1.Cellsim.Sim.reports_lost > 0
    && List.exists
         (fun s -> s.Cellsim.Sim.robustness.Cellsim.Sim.retries > 0)
         r1.Cellsim.Sim.per_scheme)

let test_sim_degradation_costs_pages () =
  (* Imperfect detection with re-paging can only increase the paging
     bill relative to the clean run on the same seed. *)
  let clean = Cellsim.Sim.run (small_config ()) in
  let faults =
    Some
      {
        Cellsim.Faults.none with
        Cellsim.Faults.detect_q = 0.7;
        retry = Cellsim.Faults.Repeat { cycles = 2; backoff = 0 };
      }
  in
  let degraded = Cellsim.Sim.run (with_faults faults (small_config ())) in
  List.iter2
    (fun c d ->
      check bool_t "degraded pages at least as many cells" true
        (d.Cellsim.Sim.cells_paged >= c.Cellsim.Sim.cells_paged))
    clean.Cellsim.Sim.per_scheme degraded.Cellsim.Sim.per_scheme

let test_sim_heavy_report_loss_survives () =
  (* Near-total report loss breaks the Area containment invariant; the
     simulator must degrade to residual misses, not crash. *)
  let faults =
    Some
      {
        Cellsim.Faults.none with
        Cellsim.Faults.report_loss = 0.95;
        report_delay = 4.0;
        detect_q = 0.9;
      }
  in
  let r = Cellsim.Sim.run (with_faults faults (small_config ())) in
  check bool_t "completed" true (r.Cellsim.Sim.total_calls > 0);
  check bool_t "reports actually lost" true (r.Cellsim.Sim.reports_lost > 0)

(* Teleporting users jump several cells in one tick. Movement reporting
   bounds a terminal's displacement by its move count, so a jump leaves
   it outside its uncertainty set: without report faults that breaks the
   simulator's containment invariant and the run must refuse to go on.
   Distance reporting fires on the jump itself and stays contained. *)
let teleport_config reporting =
  let c = small_config () in
  let cells = Cellsim.Hex.cells c.Cellsim.Sim.hex in
  {
    c with
    Cellsim.Sim.mobility =
      Cellsim.Mobility.teleport c.Cellsim.Sim.mobility ~jump:0.3
        ~target:(Array.make cells (1.0 /. float_of_int cells));
    reporting;
  }

let test_sim_containment_check () =
  let outside = function
    | Invalid_argument msg ->
      String.starts_with ~prefix:"Sim.run: user outside its uncertainty set"
        msg
    | _ -> false
  in
  let raises_outside config =
    match Cellsim.Sim.run config with
    | _ -> false
    | exception e -> outside e
  in
  check bool_t "movement reporting, no faults: refused" true
    (raises_outside (teleport_config (Cellsim.Reporting.Movement 3)));
  (* A fault model without report faults leaves the view as fresh as
     the clean run's, so the check still fires. *)
  check bool_t "movement reporting, page faults only: refused" true
    (raises_outside
       (with_faults
          (Some { Cellsim.Faults.none with Cellsim.Faults.detect_q = 0.9 })
          (teleport_config (Cellsim.Reporting.Movement 3))));
  let distance = Cellsim.Sim.run (teleport_config (Cellsim.Reporting.Distance 2)) in
  check bool_t "distance reporting stays contained" true
    (distance.Cellsim.Sim.total_calls > 0);
  (* With report loss the same motion is tolerated: devices outside the
     stale universe surface as residual misses instead. *)
  let lossy =
    Cellsim.Sim.run
      (with_faults
         (Some { Cellsim.Faults.none with Cellsim.Faults.report_loss = 0.1 })
         (teleport_config (Cellsim.Reporting.Movement 3)))
  in
  check bool_t "report loss: residual misses reported" true
    (List.for_all
       (fun s -> s.Cellsim.Sim.robustness.Cellsim.Sim.residual_misses > 0)
       lossy.Cellsim.Sim.per_scheme)

(* -------------------- Golden digest -------------------- *)

(* Every canned scenario at seeds 1–3, with the metrics registry on:
   every integer field of the result, the [%h] bits of every float
   field, and the [sim_*] counters and histograms of the run. The
   digest was taken before the simulator lost its separate fault-free
   paging executor and must not move: degraded-downtown covers the
   fault path, residence-pareto the aged and robust schemes, and
   drifting-commuter the drift snapshots. *)
let golden_sim_digest = "eae4ee4e194f4ac509dbb217cca7240f"

let sim_digest () =
  let b = Buffer.create 65536 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let m = Obs.Metrics.default in
  let was_on = Obs.Metrics.enabled m in
  Obs.Metrics.set_enabled m true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset m;
      Obs.Metrics.set_enabled m was_on)
    (fun () ->
      List.iter
        (fun (name, build) ->
          List.iter
            (fun seed ->
              Obs.Metrics.reset m;
              let r = Cellsim.Sim.run (build ?seed:(Some seed) ()) in
              let open Cellsim.Sim in
              line "%s seed %d: %h %d %d %d %d %d %d %d %d" name seed
                r.duration r.moves r.updates r.total_calls r.skipped_calls
                r.reports_lost r.reports_delayed r.outages r.polls;
              Option.iter
                (fun d ->
                  line "drift %d %d %d %s %h" d.checks d.evaluated d.resolves
                    (match d.last_resolve with
                     | None -> "-"
                     | Some t -> Printf.sprintf "%h" t)
                    d.max_mean_tv)
                r.drift;
              List.iter
                (fun s ->
                  let p = s.per_call and f = s.robustness in
                  line "%s %d %d %d %h %d | %d %h %h %h %h %h | %d %d %d %d %d %d %d %d"
                    (scheme_to_string s.scheme) s.calls s.devices_sought
                    s.cells_paged s.expected_paging s.rounds_used p.Prob.Stats.n
                    p.Prob.Stats.mean p.Prob.Stats.variance p.Prob.Stats.stddev
                    p.Prob.Stats.min p.Prob.Stats.max f.retries f.retry_cells
                    f.retry_rounds f.escalations f.escalate_cells
                    f.residual_misses f.pages_lost f.pages_blocked)
                r.per_scheme;
              let sim_metric (n, _) = String.starts_with ~prefix:"sim_" n in
              List.iter
                (fun (n, v) -> line "counter %s %d" n v)
                (List.filter sim_metric (Obs.Metrics.counters m));
              List.iter
                (fun (n, counts) ->
                  line "histogram %s %s" n
                    (String.concat " "
                       (Array.to_list (Array.map string_of_int counts))))
                (List.filter sim_metric (Obs.Metrics.histogram_buckets m)))
            [ 1; 2; 3 ])
        Cellsim.Scenario.all);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_sim_golden_digest () =
  check Alcotest.string "Scenario.all × seeds 1–3" golden_sim_digest
    (sim_digest ())

let test_sim_different_seeds_differ () =
  let c1 = small_config () in
  let c2 = { c1 with Cellsim.Sim.seed = 78 } in
  let r1 = Cellsim.Sim.run c1 and r2 = Cellsim.Sim.run c2 in
  check bool_t "different traffic" true
    (r1.Cellsim.Sim.total_calls <> r2.Cellsim.Sim.total_calls
    || r1.Cellsim.Sim.updates <> r2.Cellsim.Sim.updates)

let () =
  Alcotest.run "cellsim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          qt prop_heap_sorts;
        ] );
      ( "hex",
        [
          Alcotest.test_case "indexing" `Quick test_hex_indexing;
          Alcotest.test_case "interior neighbors" `Quick
            test_hex_neighbors_interior;
          Alcotest.test_case "corner neighbors" `Quick test_hex_neighbors_corner;
          Alcotest.test_case "symmetry" `Quick test_hex_neighbors_symmetric;
          Alcotest.test_case "neighbours ascending" `Quick
            test_hex_neighbors_ascending;
          Alcotest.test_case "distance" `Quick test_hex_distance;
          Alcotest.test_case "triangle inequality" `Slow
            test_hex_distance_triangle;
          Alcotest.test_case "disk" `Quick test_hex_disk;
          Alcotest.test_case "disk equals the full scan" `Quick
            test_hex_disk_matches_scan;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "stochastic rows" `Quick
            test_mobility_random_walk_stochastic;
          Alcotest.test_case "steps to neighbors" `Quick
            test_mobility_step_moves_to_neighbor_or_stays;
          Alcotest.test_case "stationary fixed point" `Quick
            test_mobility_stationary_is_fixed_point;
          Alcotest.test_case "drift eastward" `Quick test_mobility_drift_moves_east;
          Alcotest.test_case "teleport" `Quick test_mobility_teleport;
          Alcotest.test_case "diffusion spreads" `Quick
            test_mobility_diffuse_spreads;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "decay forgets" `Quick test_profile_decay_forgets;
          Alcotest.test_case "restriction" `Quick test_profile_distribution_over;
          Alcotest.test_case "copy" `Quick test_profile_copy_independent;
        ] );
      ( "location-area",
        [
          Alcotest.test_case "grid partition" `Quick test_la_grid_partition;
          Alcotest.test_case "uneven blocks" `Quick test_la_grid_uneven;
          Alcotest.test_case "crossing" `Quick test_la_crossing;
          Alcotest.test_case "single/per-cell" `Quick test_la_single_and_per_cell;
        ] );
      ( "event",
        [
          Alcotest.test_case "ordering" `Quick test_event_ordering_and_clock;
          Alcotest.test_case "stop boundary" `Quick test_event_stop_leaves_future;
          Alcotest.test_case "rejects past" `Quick test_event_rejects_past;
          Alcotest.test_case "cascade" `Quick test_event_cascade;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "distinct group" `Quick test_traffic_group_distinct;
          Alcotest.test_case "interarrival" `Slow test_traffic_interarrival_mean;
          Alcotest.test_case "size ranges" `Quick test_traffic_size_ranges;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "deterministic" `Slow
            test_sim_runs_and_is_deterministic;
          Alcotest.test_case "selective beats blanket" `Slow
            test_sim_selective_beats_blanket;
          Alcotest.test_case "deeper delay helps" `Slow
            test_sim_deeper_delay_pages_less;
          Alcotest.test_case "seeds differ" `Slow test_sim_different_seeds_differ;
          Alcotest.test_case "golden digest, every scenario" `Quick
            test_sim_golden_digest;
        ] );
      ( "faults",
        [
          Alcotest.test_case "Some none ≡ None" `Slow
            test_sim_none_faults_identity;
          Alcotest.test_case "inert retry" `Slow
            test_sim_zero_faults_with_retry_identity;
          Alcotest.test_case "deterministic" `Slow
            test_sim_faulty_run_deterministic;
          Alcotest.test_case "degradation costs pages" `Slow
            test_sim_degradation_costs_pages;
          Alcotest.test_case "heavy report loss" `Slow
            test_sim_heavy_report_loss_survives;
          Alcotest.test_case "containment check" `Quick
            test_sim_containment_check;
        ] );
    ]
