type result = Strategy.solution = {
  strategy : Strategy.t;
  expected_paging : float;
  exact : bool;
}

let check_order ~c order =
  if Array.length order <> c then
    invalid_arg "Order_dp: order must list every cell exactly once"
  else begin
    let seen = Array.make c false in
    Array.iter
      (fun j ->
        if j < 0 || j >= c || seen.(j) then
          invalid_arg "Order_dp: order is not a permutation of the cells"
        else seen.(j) <- true)
      order
  end

let prefix_success_table ?(objective = Objective.Find_all) inst ~order =
  let c = inst.Instance.c and m = inst.Instance.m in
  check_order ~c order;
  (* Per-device prefix masses are long running sums over cells; keep a
     Neumaier compensation term per device so c in the hundreds of
     thousands does not drift the masses (and with them every DP
     decision) away from the exact-rational values. *)
  let acc = Array.make m 0.0 in
  let comp = Array.make m 0.0 in
  let masses = Array.make m 0.0 in
  let table = Array.make (c + 1) 0.0 in
  table.(0) <- Objective.success objective masses;
  for j = 1 to c do
    let cell = order.(j - 1) in
    for i = 0 to m - 1 do
      let sum, cmp =
        Numeric.Kahan.step (acc.(i), comp.(i)) inst.Instance.p.(i).(cell)
      in
      acc.(i) <- sum;
      comp.(i) <- cmp;
      masses.(i) <- Numeric.Kahan.value (sum, cmp)
    done;
    table.(j) <- Objective.success objective masses
  done;
  table

let solve_with_prefix_success ~c ~d ?max_group ?cell_cost
    ?(cancel = Cancel.never) ~prefix_success ~order () =
  check_order ~c order;
  let b =
    match max_group with
    | None -> c
    | Some b when b >= 1 -> b
    | Some _ -> invalid_arg "Order_dp: max_group must be >= 1"
  in
  if c > b * d then invalid_arg "Order_dp: bandwidth constraint infeasible"
  else begin
    let f = Array.init (c + 1) prefix_success in
    (* cum.(j): total paging cost of the first j cells of the order
       (unit costs unless [cell_cost] is given — the weighted model). *)
    let cum = Array.make (c + 1) 0.0 in
    let cost_at =
      match cell_cost with
      | None -> fun _ -> 1.0
      | Some g -> g
    in
    for j = 1 to c do
      cum.(j) <- cum.(j - 1) +. cost_at (j - 1)
    done;
    let block_cost lo hi = cum.(hi) -. cum.(lo) in
    (* e.(l).(k): optimal expected paging cost of an l-round strategy over
       the last k cells of the order, conditioned on the search reaching
       them. x.(l).(k) records the minimizing first-group size. *)
    let e = Array.make_matrix (d + 1) (c + 1) infinity in
    let x = Array.make_matrix (d + 1) (c + 1) 0 in
    for k = 1 to Stdlib.min c b do
      e.(1).(k) <- block_cost (c - k) c;
      x.(1).(k) <- k
    done;
    for l = 2 to d do
      for k = l to c do
        Cancel.check cancel;
        (* First group of size v: v >= 1, leave >= l-1 cells for the rest,
           respect the cap on this group, and keep the rest schedulable. *)
        let v_lo = Stdlib.max 1 (k - (b * (l - 1))) in
        let v_hi = Stdlib.min b (k - l + 1) in
        let tail_start = c - k in
        let denom = 1.0 -. f.(tail_start) in
        for v = v_lo to v_hi do
          let cont =
            if denom <= 0.0 then 0.0
            else (1.0 -. f.(tail_start + v)) /. denom
          in
          let cost =
            block_cost tail_start (tail_start + v)
            +. (cont *. e.(l - 1).(k - v))
          in
          if cost < e.(l).(k) then begin
            e.(l).(k) <- cost;
            x.(l).(k) <- v
          end
        done
      done
    done;
    (* A longer strategy never pages more in expectation (the remark after
       Lemma 2.1), but with few cells we may be forced below d rounds. *)
    let rounds = Stdlib.min d c in
    if e.(rounds).(c) = infinity then
      invalid_arg "Order_dp: no feasible strategy"
    else begin
      let sizes = Array.make rounds 0 in
      let k = ref c in
      for l = rounds downto 1 do
        let v = x.(l).(!k) in
        sizes.(rounds - l) <- v;
        k := !k - v
      done;
      let strategy = Strategy.of_sizes ~order ~sizes in
      { strategy; expected_paging = e.(rounds).(c); exact = false }
    end
  end

let solve ?objective ?max_group ?cancel inst ~order =
  let c = inst.Instance.c and d = inst.Instance.d in
  let table = prefix_success_table ?objective inst ~order in
  solve_with_prefix_success ~c ~d ?max_group ?cancel
    ~prefix_success:(fun j -> table.(j))
    ~order ()

let solve_coarse ?objective ?(block = 16) inst ~order =
  let c = inst.Instance.c and d = inst.Instance.d in
  if block < 1 then invalid_arg "Order_dp.solve_coarse: block must be >= 1"
  else begin
    let table = prefix_success_table ?objective inst ~order in
    (* Treat [block] consecutive order cells as one unit whose paging
       cost is its cell count; cut points land on block boundaries only.
       The DP shrinks from O(d c^2) to O(d (c/block)^2); the answer is a
       feasible strategy whose EP the caller can compare to the full DP. *)
    let blocks = (c + block - 1) / block in
    let boundary u = Stdlib.min c (u * block) in
    let d' = Stdlib.min d blocks in
    let result =
      solve_with_prefix_success ~c:blocks ~d:d'
        ~cell_cost:(fun u -> float_of_int (boundary (u + 1) - boundary u))
        ~prefix_success:(fun u -> table.(boundary u))
        ~order:(Array.init blocks (fun u -> u))
        ()
    in
    (* Expand block-level group sizes back to cells. *)
    let sizes =
      let pos = ref 0 in
      Array.map
        (fun units ->
          let lo = boundary !pos and hi = boundary (!pos + units) in
          pos := !pos + units;
          hi - lo)
        (Strategy.sizes result.strategy)
    in
    { result with strategy = Strategy.of_sizes ~order ~sizes }
  end
