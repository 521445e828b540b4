(* The spec grammar (Wire.Spec): every printer/parser pair round-trips
   by value, and every parser refuses the same non-decimal numbers and
   empty parts with its own error text. *)

open Confcall
module S = Wire.Spec
module C = Client
module F = Cellsim.Faults
module M = Cellsim.Mobility

let check = Alcotest.check
let bool_t = Alcotest.bool

let round_trip ?(count = 500) name gen ~print ~parse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print gen) (fun v ->
         parse (print v) = Ok v))

(* ---------------- generators ---------------- *)

open QCheck.Gen

(* Any finite float, the awkward ones weighted in: the ones %g would
   round, subnormals, -0. *)
let finite =
  frequency
    [
      (4, map (fun x -> if Float.is_finite x then x else 1.5) float);
      (2, float_bound_inclusive 1.0);
      ( 1,
        oneofl
          [
            0.0; -0.0; 1.0; 5e-324; Float.min_float; Float.max_float;
            0.1 +. 0.2; 0.3000004; 1.0 -. epsilon_float; 1.23456789;
            0x1.a35f1f8160d7p+1;
          ] );
    ]

let radius = map Float.abs finite

let solver_spec =
  let open Solver in
  frequency
    [
      (3, oneofl (Class_based :: basic_specs));
      (1, map (fun b -> Bandwidth_limited b) (int_range 1 max_int));
      ( 3,
        map2
          (fun eps tv -> Robust { eps; tv })
          (map (fun x -> Float.min 1.0 x) radius)
          (oneof [ return infinity; radius ]) );
    ]

let objective =
  oneof
    [
      oneofl Objective.[ Find_all; Find_any ];
      map (fun k -> Objective.Find_at_least k) (int_range 1 max_int);
    ]

let retry =
  oneof
    [
      return F.No_retry;
      map2
        (fun cycles backoff -> F.Repeat { cycles; backoff })
        (int_range 1 max_int) (int_range 0 max_int);
      map2
        (fun after to_blanket -> F.Escalate { after; to_blanket })
        (int_range 0 max_int) bool;
    ]

let residence =
  oneof
    [
      map (fun mean -> M.Exponential { mean }) finite;
      map2 (fun alpha scale -> M.Pareto { alpha; scale }) finite finite;
      map2 (fun s cutoff -> M.Zipf { s; cutoff }) finite int;
    ]

(* A socket path as a user would type it: not blank at either end and
   free of the list separator. *)
let endpoint =
  oneof
    [
      map (fun p -> C.Tcp p) (int_range 0 65535);
      map
        (fun p -> C.Unix_path p)
        (string_size ~gen:printable (int_range 1 12)
        |> map (fun p ->
               let p = String.map (fun c -> if c = ',' then '_' else c) p in
               if String.trim p = p && p <> "" then p else "s" ^ p ^ "s"));
    ]

let strategy =
  int_range 1 12 >>= fun c ->
  shuffle_l (List.init c Fun.id) >>= fun order ->
  int_range 1 c >|= fun t ->
  let order = Array.of_list order in
  (* cut [order] into [t] non-empty groups *)
  let sizes = Array.make t 1 in
  for i = 0 to c - t - 1 do
    let g = i mod t in
    sizes.(g) <- sizes.(g) + 1
  done;
  Strategy.of_sizes ~order ~sizes

(* ---------------- round trips ---------------- *)

let bits x = Int64.bits_of_float x

let prop_numbers =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"float_to_string reads back bit for bit"
       ~count:2000 (QCheck.make ~print:string_of_float finite) (fun x ->
         match S.float (S.float_to_string x) with
         | Some y -> bits x = bits y
         | None -> false))

let round_trips =
  [
    prop_numbers;
    round_trip "solver specs" solver_spec ~print:Solver.spec_to_string
      ~parse:Solver.spec_of_string;
    round_trip "chains" (list_size (int_range 1 6) solver_spec)
      ~print:Runner.chain_to_string ~parse:Runner.chain_of_string;
    round_trip "objectives" objective ~print:Objective.to_string
      ~parse:Objective.of_string;
    round_trip "retry policies" retry ~print:F.retry_to_string
      ~parse:F.retry_of_string;
    round_trip "endpoints" (list_size (int_range 1 4) endpoint)
      ~print:C.endpoints_to_string ~parse:C.endpoints_of_string;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"residence laws" ~count:1000
         (QCheck.make ~print:M.residence_to_string residence) (fun law ->
           (* a law the validator refuses comes back as its error *)
           M.residence_of_string (M.residence_to_string law)
           = Result.map (fun () -> law) (M.validate_residence law)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"strategies" ~count:500
         (QCheck.make ~print:Strategy.to_string strategy) (fun t ->
           match Strategy.of_string (Strategy.to_string t) with
           | Ok t' -> Strategy.equal t t'
           | Error _ -> false));
  ]

(* ---------------- reject tables ---------------- *)

(* Spellings that are not decimal numbers, and an empty part. *)
let not_numbers = [ "0x10"; "1_0"; "+3"; "nan"; "inf"; ".5"; "" ]

let rejects name parse cases =
  List.iter
    (fun (s, expected) ->
      check
        (Alcotest.result Alcotest.reject Alcotest.string)
        (Printf.sprintf "%s refuses %S" name s)
        (Error expected)
        (Result.map ignore (parse s)))
    cases

let each f = List.map f not_numbers

let test_solver_rejects () =
  rejects "solver" Solver.spec_of_string
    (each (fun x -> ("robust-" ^ x, Printf.sprintf "robust: bad eps %S" x))
    @ each (fun x ->
          ("robust-0.1:" ^ x, Printf.sprintf "robust: bad tv %S" x))
    @ each (fun x ->
          ("bandwidth-" ^ x, "bandwidth-<b> needs a positive integer")))

let test_chain_rejects () =
  rejects "chain" Runner.chain_of_string
    (("greedy,,page-all", "empty solver name in chain")
    :: each (fun x ->
           ("greedy,bandwidth-" ^ x, "bandwidth-<b> needs a positive integer")))

let test_objective_rejects () =
  rejects "objective" Objective.of_string
    (each (fun x -> (x, "objective must be all|any|<k>"))
    @ each (fun x -> ("find-" ^ x, "objective must be all|any|<k>")))

let test_reporting_rejects () =
  rejects "reporting" Cellsim.Reporting.of_string
    (each (fun x ->
         ( "movement-" ^ x,
           "reporting must be area | movement-<k> | distance-<k> | time-<k>"
         )))

let test_residence_rejects () =
  let usage =
    "residence must be exp:<mean> | pareto:<alpha>:<scale> | \
     zipf:<s>:<cutoff>"
  in
  rejects "residence" M.residence_of_string
    (each (fun x -> ("exp:" ^ x, usage))
    @ each (fun x -> ("pareto:1.6:" ^ x, usage))
    @ each (fun x -> ("zipf:1.2:" ^ x, usage)))

let test_retry_rejects () =
  rejects "retry" F.retry_of_string
    (each (fun x -> ("repeat:" ^ x, "repeat cycles must be an integer >= 1"))
    @ each (fun x ->
          ("repeat:2:" ^ x, "repeat takes cycles >= 1 and backoff >= 0"))
    @ each (fun x ->
          ("escalate:" ^ x, "escalate after must be an integer >= 0")))

let test_endpoint_rejects () =
  rejects "endpoints" C.endpoints_of_string
    (("8080,,9090", "empty endpoint")
    :: each (fun x ->
           let e = "tcp:" ^ x in
           (e, Printf.sprintf "endpoint %S: bad tcp port" e)))

let test_strategy_rejects () =
  rejects "strategy" Strategy.of_string
    (("0 1||2", "Strategy.create: empty group")
    :: List.filter_map
         (fun x ->
           if x = "" then None
           else
             Some
               ( "0 " ^ x ^ "|1",
                 Printf.sprintf
                   "bad cell index %S (expected space-separated integers in \
                    '|'-separated groups, e.g. \"0 1 2|3 4|5\")"
                   x ))
         not_numbers)

let test_chaos_rejects () =
  rejects "chaos" Faultpoint.parse
    (("journal.fsync=0.1,,cache.store=0.3",
      "chaos: entry \"\" is not point=prob[@param]")
    :: each (fun x ->
           ( "pool.task.crash=" ^ x,
             Printf.sprintf "chaos: pool.task.crash: bad probability %S" x ))
    @ each (fun x ->
          ( "pool.task.delay=0.1@" ^ x,
            Printf.sprintf
              "chaos: pool.task.delay: param must be a non-negative number, \
               got %S"
              x )))

(* Parts are trimmed and words case-folded the same way in every
   parser; Unix paths and fault-point names keep their case. *)
let test_one_trim_and_case () =
  check bool_t "solver" true
    (Solver.spec_of_string " Greedy " = Ok Solver.Greedy);
  check bool_t "solver radius" true
    (Solver.spec_of_string "ROBUST- 0.5 : 2 "
    = Ok (Solver.Robust { eps = 0.5; tv = 2.0 }));
  check bool_t "chain" true
    (Runner.chain_of_string " greedy , PAGE-ALL"
    = Ok Solver.[ Greedy; Page_all ]);
  check bool_t "reporting" true
    (Cellsim.Reporting.of_string " Move- 2 "
    = Ok (Cellsim.Reporting.Movement 2));
  check bool_t "retry" true
    (F.retry_of_string " Escalate : 1 : Universe "
    = Ok (F.Escalate { after = 1; to_blanket = false }));
  check bool_t "residence" true
    (M.residence_of_string " EXP : 6 " = Ok (M.Exponential { mean = 6.0 }));
  check bool_t "scenario" true
    (Result.is_ok (Cellsim.Scenario.find " Residence-Pareto "));
  check bool_t "unix path keeps its case" true
    (C.endpoints_of_string " unix:/tmp/A.sock , 80"
    = Ok [ C.Unix_path "/tmp/A.sock"; C.Tcp 80 ]);
  check bool_t "fault-point names keep their case" true
    (Result.is_error (Faultpoint.parse "Pool.Task.Crash=0.1"));
  check bool_t "strategy" true
    (Result.map Strategy.groups (Strategy.of_string " {1  0} | 2 ")
    = Ok [| [| 0; 1 |]; [| 2 |] |])

let () =
  Alcotest.run "spec"
    [
      ("round trips", round_trips);
      ( "rejects",
        [
          Alcotest.test_case "solver" `Quick test_solver_rejects;
          Alcotest.test_case "chain" `Quick test_chain_rejects;
          Alcotest.test_case "objective" `Quick test_objective_rejects;
          Alcotest.test_case "reporting" `Quick test_reporting_rejects;
          Alcotest.test_case "residence" `Quick test_residence_rejects;
          Alcotest.test_case "retry" `Quick test_retry_rejects;
          Alcotest.test_case "endpoints" `Quick test_endpoint_rejects;
          Alcotest.test_case "strategy" `Quick test_strategy_rejects;
          Alcotest.test_case "chaos" `Quick test_chaos_rejects;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "one trim and case rule" `Quick
            test_one_trim_and_case;
        ] );
    ]
