type distribution = {
  support : float array;
  probabilities : float array;
  mean : float;
  variance : float;
  stddev : float;
}

let make_distribution support probabilities =
  let mean = ref 0.0 and second = ref 0.0 in
  Array.iteri
    (fun i p ->
      mean := !mean +. (p *. support.(i));
      second := !second +. (p *. support.(i) *. support.(i)))
    probabilities;
  let variance = Stdlib.max 0.0 (!second -. (!mean *. !mean)) in
  { support; probabilities; mean = !mean; variance; stddev = sqrt variance }

let stop_probabilities ?objective inst strategy =
  let f = Strategy.success_by_round ?objective inst strategy in
  let rounds = Array.length f in
  (* P[stop at round r] = F_r - F_{r-1}; the last round absorbs any
     remaining mass (the search always ends there, found or not). *)
  Array.init rounds (fun r ->
      if r = rounds - 1 then 1.0 -. (if r = 0 then 0.0 else f.(r - 1))
      else if r = 0 then f.(0)
      else f.(r) -. f.(r - 1))

let cost_distribution ?objective inst strategy =
  (match Strategy.validate ~c:inst.Instance.c strategy with
   | Ok () -> ()
   | Error reason -> invalid_arg ("Analysis.cost_distribution: " ^ reason));
  let sizes = Strategy.sizes strategy in
  let cumulative = Array.make (Array.length sizes) 0.0 in
  let acc = ref 0 in
  Array.iteri
    (fun r s ->
      acc := !acc + s;
      cumulative.(r) <- float_of_int !acc)
    sizes;
  make_distribution cumulative (stop_probabilities ?objective inst strategy)

let rounds_distribution ?objective inst strategy =
  (match Strategy.validate ~c:inst.Instance.c strategy with
   | Ok () -> ()
   | Error reason -> invalid_arg ("Analysis.rounds_distribution: " ^ reason));
  let rounds = Strategy.length strategy in
  let support = Array.init rounds (fun r -> float_of_int (r + 1)) in
  make_distribution support (stop_probabilities ?objective inst strategy)

let quantile dist q =
  if q < 0.0 || q > 1.0 then invalid_arg "Analysis.quantile: q out of range"
  else begin
    let n = Array.length dist.support in
    let rec go i acc =
      if i >= n - 1 then dist.support.(n - 1)
      else begin
        let acc = acc +. dist.probabilities.(i) in
        if acc >= q -. 1e-12 then dist.support.(i) else go (i + 1) acc
      end
    in
    go 0 0.0
  end

let delay_paging_frontier ?objective inst ~max_d =
  if max_d < 1 || max_d > inst.Instance.c then
    invalid_arg "Analysis.delay_paging_frontier: bad max_d"
  else
    Array.init max_d (fun i ->
        let d = i + 1 in
        let sub = Instance.with_d inst d in
        let r = Greedy.solve ?objective sub in
        let rounds = Strategy.expected_rounds ?objective sub r.Strategy.strategy in
        rounds, r.Strategy.expected_paging)
