let success_cap objective ~m x =
  match objective with
  | Objective.Find_all ->
    Stdlib.min 1.0 ((x /. float_of_int m) ** float_of_int m)
  | Objective.Find_any -> Stdlib.min 1.0 x
  | Objective.Find_at_least k -> Stdlib.min 1.0 (x /. float_of_int k)

let amgm_dp ?(objective = Objective.Find_all) inst =
  let c = inst.Instance.c and d = inst.Instance.d and m = inst.Instance.m in
  (* W(b): total weight of the b heaviest cells; any b-cell prefix of any
     strategy has success probability at most g(b) = cap(W(b)). *)
  let order = Instance.weight_order inst in
  let w = Array.make (c + 1) 0.0 in
  for b = 1 to c do
    w.(b) <- w.(b - 1) +. Instance.cell_weight inst order.(b - 1)
  done;
  let g = Array.init (c + 1) (fun b -> success_cap objective ~m w.(b)) in
  (* EP of any t-round strategy with prefix sizes b_1 < … < b_t = c is at
     least c - Σ_{r=1}^{t-1} (b_{r+1} - b_r)·g(b_r). Maximize the saving:
     s.(l).(b) = best saving when the current prefix is b and l rounds
     remain; the next group [b, b') contributes (b' - b)·g(b). *)
  let t = Stdlib.min d c in
  let s = Array.make_matrix (t + 1) (c + 1) neg_infinity in
  for b = 0 to c - 1 do
    s.(1).(b) <- float_of_int (c - b) *. g.(b)
  done;
  for l = 2 to t do
    for b = 0 to c - l do
      let acc = ref neg_infinity in
      for b' = b + 1 to c - l + 1 do
        let v = (float_of_int (b' - b) *. g.(b)) +. s.(l - 1).(b') in
        if v > !acc then acc := v
      done;
      s.(l).(b) <- !acc
    done
  done;
  float_of_int c -. Stdlib.max 0.0 s.(t).(0)

let occupied_cells inst =
  let c = inst.Instance.c and m = inst.Instance.m in
  let s = ref 0.0 in
  for j = 0 to c - 1 do
    let none = ref 1.0 in
    for i = 0 to m - 1 do
      none := !none *. (1.0 -. inst.Instance.p.(i).(j))
    done;
    s := !s +. (1.0 -. !none)
  done;
  !s

let lower_bound ?(objective = Objective.Find_all) inst =
  let base = amgm_dp ~objective inst in
  match objective with
  | Objective.Find_all -> Stdlib.max base (occupied_cells inst)
  | Objective.Find_any | Objective.Find_at_least _ -> Stdlib.max base 1.0
