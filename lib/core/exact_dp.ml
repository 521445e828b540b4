module Q = Numeric.Rational

let solve ?(objective = Objective.Find_all) ?(cancel = Cancel.never) inst
    ~order =
  let c = inst.Instance.Exact.c in
  let d = Stdlib.min inst.Instance.Exact.d c in
  let m = inst.Instance.Exact.m in
  if Array.length order <> c then
    invalid_arg "Exact_dp.solve: order length mismatch";
  let seen = Array.make c false in
  Array.iter
    (fun j ->
      if j < 0 || j >= c || seen.(j) then
        invalid_arg "Exact_dp.solve: order is not a permutation"
      else seen.(j) <- true)
    order;
  (* Prefix success probabilities, exactly. *)
  let f = Array.make (c + 1) Q.zero in
  let acc = Array.make m Q.zero in
  f.(0) <- Objective.success_exact objective (Array.make m Q.zero);
  for j = 1 to c do
    let cell = order.(j - 1) in
    for i = 0 to m - 1 do
      acc.(i) <- Q.add acc.(i) inst.Instance.Exact.p.(i).(cell)
    done;
    f.(j) <- Objective.success_exact objective (Array.copy acc)
  done;
  (* e.(l).(k): optimal expected cells paged over the last k cells with
     l rounds, conditioned on reaching them (None = unreachable). *)
  let e = Array.make_matrix (d + 1) (c + 1) None in
  let x = Array.make_matrix (d + 1) (c + 1) 0 in
  for k = 1 to c do
    e.(1).(k) <- Some (Q.of_int k);
    x.(1).(k) <- k
  done;
  for l = 2 to d do
    for k = l to c do
      Cancel.check cancel;
      let tail_start = c - k in
      let denom = Q.sub Q.one f.(tail_start) in
      for v = 1 to k - l + 1 do
        match e.(l - 1).(k - v) with
        | None -> ()
        | Some tail ->
          let cont =
            if Q.sign denom <= 0 then Q.zero
            else Q.div (Q.sub Q.one f.(tail_start + v)) denom
          in
          let cost = Q.add (Q.of_int v) (Q.mul cont tail) in
          (match e.(l).(k) with
           | Some best when Q.compare best cost <= 0 -> ()
           | _ ->
             e.(l).(k) <- Some cost;
             x.(l).(k) <- v)
      done
    done
  done;
  match e.(d).(c) with
  | None -> invalid_arg "Exact_dp.solve: no feasible strategy"
  | Some expected_paging ->
    let sizes = Array.make d 0 in
    let k = ref c in
    for l = d downto 1 do
      let v = x.(l).(!k) in
      sizes.(d - l) <- v;
      k := !k - v
    done;
    (Strategy.of_sizes ~order ~sizes, expected_paging)

let greedy ?objective ?cancel inst =
  solve ?objective ?cancel inst ~order:(Instance.Exact.weight_order inst)
