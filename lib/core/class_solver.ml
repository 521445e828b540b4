let classes inst =
  let p = inst.Instance.p in
  let same a b = Array.for_all (fun r -> r.(a) = r.(b)) p in
  (* Group cells left to right; representatives keep first-seen order so
     the constructed strategies are deterministic. *)
  let groups : (int * int list ref) list ref = ref [] in
  for j = 0 to inst.Instance.c - 1 do
    match List.find_opt (fun (rep, _) -> same rep j) !groups with
    | Some (_, members) -> members := j :: !members
    | None -> groups := !groups @ [ (j, ref [ j ]) ]
  done;
  Array.of_list (List.map (fun (_, ms) -> Array.of_list (List.rev !ms)) !groups)

let solve ?objective ?cancel ?(guard = true) inst =
  let d = Stdlib.min inst.Instance.d inst.Instance.c in
  let cls = classes inst in
  (* Guard: at most 5·10⁶ Π_t C(n_t + d − 1, d − 1) per-class count
     compositions. *)
  let compositions g =
    let acc = ref 1.0 in
    for i = 1 to d - 1 do
      acc := !acc *. float_of_int (Array.length g + i) /. float_of_int i
    done;
    !acc
  in
  if guard && Array.fold_left (fun a g -> a *. compositions g) 1.0 cls > 5e6
  then invalid_arg "Class_solver.solve: too many compositions"
  else Optimal.exhaustive ?objective ?cancel ~classes:cls ~guard:false inst

let approximate ?(objective = Objective.Find_all) inst ~grid =
  if grid < 1 then invalid_arg "Class_solver.approximate: grid must be >= 1"
  else begin
    (* Snap each probability to the nearest multiple of 1/grid, keep rows
       normalized; equal snapped columns collapse into classes. *)
    let snap x = Float.round (x *. float_of_int grid) /. float_of_int grid in
    let snapped =
      Array.map
        (fun row ->
          let r = Array.map snap row in
          let total = Array.fold_left ( +. ) 0.0 r in
          if total <= 0.0 then Array.copy row
          else Array.map (fun x -> x /. total) r)
        inst.Instance.p
    in
    let surrogate = Instance.create ~d:inst.Instance.d snapped in
    let r = solve ~objective surrogate in
    (* Report the strategy's true quality on the original instance. *)
    let expected_paging = Strategy.expected_paging ~objective inst r.strategy in
    { r with expected_paging; exact = false }
  end
