(* sim-aging: the residence-time laboratory under Pareto dwell times
   (Scenario.residence_pareto: blanket, selective, aged and robust
   schemes over semi-Markov motion), run in process with no daemon. *)

open Confcall
open Cellsim
module Rng = Prob.Rng

let build ~seed = Scenario.residence_pareto ~seed ()

(* One chunk is one Sim.run of the scenario's own 300 ticks — exactly
   the work of one daemon [simulate] request for it. *)
let chunk_seed ~seed i = (seed * 7919) + i

type chunk = { wall_s : float; result : Sim.result; sim_seed : int }

let run_chunk cfg ~seed i =
  let sim_seed = chunk_seed ~seed i in
  let t0 = Clock.s () in
  let result = Sim.run { cfg with Sim.seed = sim_seed } in
  { wall_s = Clock.s () -. t0; result; sim_seed }

let scored_scheme = "agedrobust-d3"

let scheme_metrics (r : Sim.result) name =
  List.find (fun (s : Sim.scheme_metrics) -> Sim.scheme_to_string s.Sim.scheme = name) r.Sim.per_scheme

(* Every scheme must have seen every call of its run. *)
let schemes_agree (r : Sim.result) =
  List.for_all (fun (s : Sim.scheme_metrics) -> s.Sim.calls = r.Sim.total_calls) r.Sim.per_scheme

let same_outcome (a : Sim.result) (b : Sim.result) =
  a.Sim.total_calls = b.Sim.total_calls
  && List.for_all2
       (fun (x : Sim.scheme_metrics) (y : Sim.scheme_metrics) ->
         x.Sim.scheme = y.Sim.scheme && x.Sim.calls = y.Sim.calls && x.Sim.cells_paged = y.Sim.cells_paged)
       a.Sim.per_scheme b.Sim.per_scheme

(* ---- the traced shadow of one run ----

   Sim.run's clean path rebuilt from the cellsim and core public
   functions, on the scenario's own config and seed: every tick moves
   every user by the semi-Markov walk and feeds reports to the
   profiles; every call builds each scheme's rows over the union of the
   participants' uncertainty sets, plans (the robust scheme re-ranks the
   solver's candidates by worst-case EP over its staleness ball) and
   pages against ground truth. Only the named functions are timed; the
   rest of the loop is the coverage gap. *)

let time = Layers.time

let shadow (cfg : Sim.config) ~ticks =
  let a = Option.get cfg.Sim.aging in
  let hex = cfg.Sim.hex and areas = cfg.Sim.areas and policy = cfg.Sim.reporting in
  let cells = Hex.cells hex and users = cfg.Sim.users in
  let kernel = Mobility.aging_uniform ~dwell_cap:a.Sim.dwell_cap cfg.Sim.mobility a.Sim.residence in
  let rng = Rng.create ~seed:cfg.Sim.seed in
  let rng_move = Rng.split rng in
  let rng_traffic = Rng.split rng in
  let position = Array.init users (fun _ -> Rng.int rng_move cells) in
  let report = Array.map (fun cell -> Reporting.init policy ~cell ~now:0.0) position in
  let profiles =
    Array.init users (fun _ ->
        Profile.create ~cells ~decay:cfg.Sim.profile_decay ~smoothing:cfg.Sim.profile_smoothing)
  in
  let observe u cell = time "cellsim.profile_observe" (fun () -> Profile.observe profiles.(u) cell) in
  Array.iteri observe position;
  let dwell = Array.make users 0 in
  let age u = min a.Sim.age_cap (Reporting.ticks_since_report report.(u)) in
  let calls = ref 0 in
  let call now =
    let group = Traffic.draw_group cfg.Sim.traffic rng_traffic in
    let uncertain = Array.map (fun u -> Reporting.uncertainty policy ~areas ~hex report.(u) ~now) group in
    let local = Hashtbl.create 64 and universe = ref 0 in
    Array.iter
      (Array.iter (fun cell ->
           if not (Hashtbl.mem local cell) then begin
             Hashtbl.add local cell !universe;
             incr universe
           end))
      uncertain;
    let c_local = !universe in
    let scatter idx dist =
      let row = Array.make c_local 0.0 in
      Array.iteri (fun k cell -> row.(Hashtbl.find local cell) <- dist.(k)) uncertain.(idx);
      row
    in
    let counts_rows () =
      Array.mapi (fun idx u -> scatter idx (Profile.distribution_over profiles.(u) uncertain.(idx))) group
    in
    let aged_rows () =
      Array.mapi
        (fun idx u ->
          scatter idx
            (time "cellsim.profile_aged_over" (fun () ->
                 Profile.aged_over profiles.(u) ~aging:kernel ~age:(age u) uncertain.(idx))))
        group
    in
    let greedy d rows = (Greedy.solve (Instance.create ~d:(min d c_local) rows)).Order_dp.strategy in
    let robust d rows =
      let inst = Instance.create ~d:(min d c_local) rows in
      let base =
        Array.map
          (fun u -> Prob.Estimate.dkw_eps ~n:(Profile.observations profiles.(u)) ~confidence:a.Sim.confidence)
          group
      in
      let churn = Array.map (fun u -> 1.0 -. Mobility.residence_survival a.Sim.residence (age u)) group in
      let ball = Uncertainty.inflate (Uncertainty.per_row base) ~by:churn in
      let best = ref None in
      List.iter
        (fun cand ->
          match time "core.solver_solve" (fun () -> Solver.solve cand inst) with
          | o ->
            let r = time "core.robust_ep" (fun () -> Uncertainty.robust_ep ball inst o.Solver.strategy) in
            (match !best with Some (_, r') when r' <= r -> () | _ -> best := Some (o.Solver.strategy, r))
          | exception Invalid_argument _ -> ())
        Solver.robust_candidates;
      match !best with Some (s, _) -> s | None -> (Greedy.solve inst).Order_dp.strategy
    in
    let plan = function
      | Sim.Blanket -> ignore (counts_rows ()); Strategy.page_all c_local
      | Sim.Selective d | Sim.Selective_diffuse d -> greedy d (counts_rows ())
      | Sim.Selective_aged d -> greedy d (aged_rows ())
      | Sim.Selective_robust d -> robust d (aged_rows ())
    in
    match Array.map (fun u -> Hashtbl.find_opt local position.(u)) group with
    | positions when Array.for_all Option.is_some positions ->
      let positions = Array.map Option.get positions in
      incr calls;
      List.iter
        (fun scheme ->
          let strategy = time "cellsim.call_solve" (fun () -> plan scheme) in
          ignore
            (time "cellsim.page_cost" (fun () ->
                 Strategy.cost_on_outcome strategy ~m:(Array.length group) ~positions)))
        cfg.Sim.schemes
    | _ -> ()
  in
  let next_call = ref (Traffic.next_arrival cfg.Sim.traffic rng_traffic) in
  for tick = 1 to ticks do
    let now = float_of_int tick in
    while !next_call < now do
      call !next_call;
      next_call := !next_call +. Traffic.next_arrival cfg.Sim.traffic rng_traffic
    done;
    for u = 0 to users - 1 do
      let from_cell = position.(u) in
      let to_cell, dw =
        time "cellsim.mobility_semi_step" (fun () ->
            Mobility.semi_step kernel rng_move ~cell:from_cell ~dwell:dwell.(u))
      in
      dwell.(u) <- dw;
      position.(u) <- to_cell;
      if Reporting.on_move policy ~areas ~hex report.(u) ~from_cell ~to_cell ~now then observe u to_cell
    done
  done;
  !calls

(* Top-level layers of a simulated call (the nested ones — aged rows,
   candidate solves, robust_ep — run inside call_solve). *)
let top_layers =
  [ "cellsim.mobility_semi_step"; "cellsim.profile_observe"; "cellsim.call_solve"; "cellsim.page_cost" ]
