type result = {
  strategy : Strategy.t;
  expected_paging : float;
  iterations : int;
}

(* Mutable working state: cell -> round assignment, per-round cell
   counts, and per-device per-round probability masses. Rounds stay
   non-empty throughout (fixed strategy length; by the remark after
   Lemma 2.1 using all available rounds is never worse). *)
type state = {
  inst : Instance.t;
  objective : Objective.t;
  rounds : int;
  round_of : int array;
  counts : int array;
  masses : float array array;  (* m x rounds *)
}

let ep state =
  let m = state.inst.Instance.m in
  let prefix = Array.make m 0.0 in
  let total = ref (float_of_int state.inst.Instance.c) in
  for r = 0 to state.rounds - 2 do
    for i = 0 to m - 1 do
      prefix.(i) <- prefix.(i) +. state.masses.(i).(r)
    done;
    let f = Objective.success state.objective prefix in
    total := !total -. (float_of_int state.counts.(r + 1) *. f)
  done;
  !total

let relocate state cell target =
  let src = state.round_of.(cell) in
  state.round_of.(cell) <- target;
  state.counts.(src) <- state.counts.(src) - 1;
  state.counts.(target) <- state.counts.(target) + 1;
  for i = 0 to state.inst.Instance.m - 1 do
    let p = state.inst.Instance.p.(i).(cell) in
    state.masses.(i).(src) <- state.masses.(i).(src) -. p;
    state.masses.(i).(target) <- state.masses.(i).(target) +. p
  done

let state_of_strategy ?(objective = Objective.Find_all) inst strategy =
  (match Strategy.validate ~c:inst.Instance.c strategy with
   | Ok () -> ()
   | Error reason -> invalid_arg ("Local_search: " ^ reason));
  let groups = Strategy.groups strategy in
  let rounds = Array.length groups in
  let round_of = Array.make inst.Instance.c 0 in
  let counts = Array.make rounds 0 in
  let masses = Array.make_matrix inst.Instance.m rounds 0.0 in
  Array.iteri
    (fun r group ->
      counts.(r) <- Array.length group;
      Array.iter
        (fun cell ->
          round_of.(cell) <- r;
          for i = 0 to inst.Instance.m - 1 do
            masses.(i).(r) <- masses.(i).(r) +. inst.Instance.p.(i).(cell)
          done)
        group)
    groups;
  { inst; objective; rounds; round_of; counts; masses }

let strategy_of_state state =
  let buckets = Array.make state.rounds [] in
  for cell = state.inst.Instance.c - 1 downto 0 do
    let r = state.round_of.(cell) in
    buckets.(r) <- cell :: buckets.(r)
  done;
  Strategy.create (Array.map Array.of_list buckets)

(* Evaluate a relocate without committing: apply, measure, revert. *)
let try_relocate state cell target =
  let src = state.round_of.(cell) in
  relocate state cell target;
  let v = ep state in
  relocate state cell src;
  v

let try_swap state cell_a cell_b =
  let ra = state.round_of.(cell_a) and rb = state.round_of.(cell_b) in
  relocate state cell_a rb;
  relocate state cell_b ra;
  let v = ep state in
  relocate state cell_b rb;
  relocate state cell_a ra;
  v

exception Out_of_budget

let hill_climb_state ?(cancel = Cancel.never) state =
  let c = state.inst.Instance.c in
  let iterations = ref 0 in
  let current = ref (ep state) in
  let improved = ref true in
  (* On cancellation the scan stops where it stands: the working state is
     a valid strategy at every point, so best-so-far is always returnable
     (the anytime contract the Runner relies on). *)
  (try
     while !improved do
       improved := false;
       (* Best improving relocate. *)
       let best_gain = ref 1e-12 in
       let best_move = ref None in
       for cell = 0 to c - 1 do
         let src = state.round_of.(cell) in
         if state.counts.(src) > 1 then
           for target = 0 to state.rounds - 1 do
             if target <> src then begin
               if Cancel.poll cancel then raise Out_of_budget;
               incr iterations;
               let v = try_relocate state cell target in
               if !current -. v > !best_gain then begin
                 best_gain := !current -. v;
                 best_move := Some (`Relocate (cell, target))
               end
             end
           done
       done;
       (* Best improving swap. *)
       for a = 0 to c - 1 do
         for b = a + 1 to c - 1 do
           if state.round_of.(a) <> state.round_of.(b) then begin
             if Cancel.poll cancel then raise Out_of_budget;
             incr iterations;
             let v = try_swap state a b in
             if !current -. v > !best_gain then begin
               best_gain := !current -. v;
               best_move := Some (`Swap (a, b))
             end
           end
         done
       done;
       match !best_move with
       | Some (`Relocate (cell, target)) ->
         relocate state cell target;
         current := ep state;
         improved := true
       | Some (`Swap (a, b)) ->
         let ra = state.round_of.(a) and rb = state.round_of.(b) in
         relocate state a rb;
         relocate state b ra;
         current := ep state;
         improved := true
       | None -> ()
     done
   with Out_of_budget -> ());
  !current, !iterations

(* The greedy cut of §4.2.2, computed by the list DP: this module is the
   list reference for [Flat]'s climb, so it must not reach the flat cores
   through [Greedy.solve]. *)
let greedy_seed ~objective inst =
  (Order_dp.solve ~objective inst ~order:(Instance.weight_order inst))
    .Order_dp.strategy

let hill_climb ?(objective = Objective.Find_all) ?cancel inst =
  let state = state_of_strategy ~objective inst (greedy_seed ~objective inst) in
  let expected_paging, iterations = hill_climb_state ?cancel state in
  { strategy = strategy_of_state state; expected_paging; iterations }
