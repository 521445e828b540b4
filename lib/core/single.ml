let solve inst =
  if inst.Instance.m <> 1 then
    invalid_arg "Single.solve: instance must have exactly one device"
  else Greedy.solve inst

let uniform_sizes ~c ~d =
  if c <= 0 || d <= 0 || d > c then invalid_arg "Single.uniform_sizes"
  else begin
    (* Near-equal sizes minimize Σ sᵣ², which is the only term EP depends
       on for a uniform device: EP = c − (c² − Σ sᵣ²)/(2c). *)
    let q = c / d and r = c mod d in
    Array.init d (fun i -> if i < r then q + 1 else q)
  end

let uniform_ep ~c ~d =
  let sizes = uniform_sizes ~c ~d in
  let sum_sq =
    Array.fold_left (fun acc s -> acc +. (float_of_int s ** 2.0)) 0.0 sizes
  in
  let cf = float_of_int c in
  cf -. (((cf *. cf) -. sum_sq) /. (2.0 *. cf))
