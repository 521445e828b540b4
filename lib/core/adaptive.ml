type policy =
  rounds_left:int -> remaining:int array -> missing:int array -> int array

let greedy_policy ?objective inst =
  let memo = Hashtbl.create 64 in
  fun ~rounds_left ~remaining ~missing ->
    let key = (rounds_left, Array.to_list remaining, Array.to_list missing) in
    match Hashtbl.find_opt memo key with
    | Some group -> group
    | None ->
      let group =
        if rounds_left <= 1 then Array.copy remaining
        else begin
          let sub =
            Instance.restrict inst ~d:rounds_left ~cells:remaining
              ~devices:missing
          in
          let result = Greedy.solve ?objective sub in
          let first = (Strategy.groups result.Strategy.strategy).(0) in
          (* Map sub-instance cell indices back to original ids. *)
          Array.map (fun j -> remaining.(j)) first
        end
      in
      Hashtbl.add memo key group;
      group

let oblivious_policy strategy =
  let groups = Strategy.groups strategy in
  let rounds = Array.length groups in
  let total = Array.fold_left (fun acc g -> acc + Array.length g) 0 groups in
  let prefix = Array.make (rounds + 1) 0 in
  for r = 0 to rounds - 1 do
    prefix.(r + 1) <- prefix.(r) + Array.length groups.(r)
  done;
  fun ~rounds_left ~remaining ~missing ->
    ignore rounds_left;
    ignore missing;
    (* Infer the current round from how many cells have been paged. *)
    let paged = total - Array.length remaining in
    let rec find r =
      if r >= rounds then Array.copy remaining
      else if prefix.(r) = paged then groups.(r)
      else find (r + 1)
    in
    find 0

(* Run the policy on one concrete outcome; returns cells paged. *)
let run_outcome ~objective ~m ~d ~c policy positions =
  let rec go ~rounds_left ~remaining ~missing ~found ~cost =
    if Objective.found_enough objective ~m ~found then cost
    else if rounds_left = 0 then cost
    else begin
      let group = policy ~rounds_left ~remaining ~missing in
      let in_group = Array.make c false in
      Array.iter (fun j -> in_group.(j) <- true) group;
      let newly_found =
        Array.fold_left
          (fun acc i -> if in_group.(positions.(i)) then acc + 1 else acc)
          0 missing
      in
      let missing =
        Array.of_list
          (List.filter
             (fun i -> not in_group.(positions.(i)))
             (Array.to_list missing))
      in
      let remaining =
        Array.of_list
          (List.filter (fun j -> not in_group.(j)) (Array.to_list remaining))
      in
      go ~rounds_left:(rounds_left - 1) ~remaining ~missing
        ~found:(found + newly_found)
        ~cost:(cost + Array.length group)
    end
  in
  let remaining = Array.init c (fun j -> j) in
  let missing = Array.init m (fun i -> i) in
  go ~rounds_left:d ~remaining ~missing ~found:0 ~cost:0

let evaluate_exact ?(objective = Objective.Find_all) inst policy =
  let m = inst.Instance.m and c = inst.Instance.c and d = inst.Instance.d in
  let outcomes = float_of_int c ** float_of_int m in
  if outcomes > 2e6 then
    invalid_arg "Adaptive.evaluate_exact: c^m too large"
  else begin
    let positions = Array.make m 0 in
    let total = ref 0.0 in
    let rec enumerate i prob =
      if i = m then begin
        let cost = run_outcome ~objective ~m ~d ~c policy positions in
        total := !total +. (prob *. float_of_int cost)
      end
      else
        for j = 0 to c - 1 do
          positions.(i) <- j;
          enumerate (i + 1) (prob *. inst.Instance.p.(i).(j))
        done
    in
    enumerate 0 1.0;
    !total
  end

let evaluate_monte_carlo ?(objective = Objective.Find_all) inst policy rng
    ~trials =
  let m = inst.Instance.m and c = inst.Instance.c and d = inst.Instance.d in
  let tables =
    Array.init m (fun i -> Prob.Sampling.create inst.Instance.p.(i))
  in
  let acc = Prob.Stats.Acc.create () in
  let positions = Array.make m 0 in
  for _ = 1 to trials do
    for i = 0 to m - 1 do
      positions.(i) <- Prob.Sampling.draw tables.(i) rng
    done;
    let cost = run_outcome ~objective ~m ~d ~c policy positions in
    Prob.Stats.Acc.add acc (float_of_int cost)
  done;
  Prob.Stats.Acc.summary acc

let greedy_adaptive_ep ?objective inst =
  evaluate_exact ?objective inst (greedy_policy ?objective inst)
