module I = Numeric.Interval

type t = {
  eps : float;
  row_eps : float array option;
  tv : float;
}

let check_eps ~what e =
  if Float.is_nan e || e < 0.0 || e > 1.0 then
    invalid_arg
      (Printf.sprintf "Uncertainty: %s must be in [0, 1], got %g" what e)

let check_tv tv =
  if Float.is_nan tv || tv < 0.0 then
    invalid_arg (Printf.sprintf "Uncertainty: tv must be >= 0, got %g" tv)

let uniform ?(tv = infinity) eps =
  check_eps ~what:"eps" eps;
  check_tv tv;
  { eps; row_eps = None; tv }

let per_row ?(tv = infinity) eps =
  if Array.length eps = 0 then invalid_arg "Uncertainty.per_row: empty array";
  Array.iteri
    (fun i e -> check_eps ~what:(Printf.sprintf "row_eps.(%d)" i) e)
    eps;
  check_tv tv;
  { eps = 0.0; row_eps = Some (Array.copy eps); tv }

let eps_for t i = match t.row_eps with Some a -> a.(i) | None -> t.eps

let inflate t ~by =
  if Array.length by = 0 then invalid_arg "Uncertainty.inflate: empty array";
  Array.iteri
    (fun i g ->
      if Float.is_nan g || g < 0.0 then
        invalid_arg
          (Printf.sprintf
             "Uncertainty.inflate: by.(%d) must be >= 0, got %g" i g))
    by;
  (match t.row_eps with
   | Some a when Array.length a <> Array.length by ->
     invalid_arg
       (Printf.sprintf "Uncertainty.inflate: %d growths for %d rows"
          (Array.length by) (Array.length a))
   | _ -> ());
  let row_eps =
    Array.mapi (fun i g -> Float.min 1.0 (eps_for t i +. g)) by
  in
  { eps = 0.0; row_eps = Some row_eps; tv = t.tv }

let validate t ~m =
  match t.row_eps with
  | Some a when Array.length a <> m ->
    Error
      (Printf.sprintf "row_eps has %d entries for %d devices"
         (Array.length a) m)
  | _ -> Ok ()

type bounds = { lo : float; hi : float }

(* group_of.(j) = index of the round that pages cell j *)
let group_of inst strat =
  let g = Array.make inst.Instance.c (-1) in
  Array.iteri
    (fun r cells -> Array.iter (fun j -> g.(j) <- r) cells)
    (Strategy.groups strat);
  g

let check ?(objective = Objective.Find_all) u inst strat =
  (match validate u ~m:inst.Instance.m with
   | Ok () -> ()
   | Error e -> invalid_arg ("Uncertainty: " ^ e));
  (match Strategy.validate ~c:inst.Instance.c strat with
   | Ok () -> ()
   | Error e -> invalid_arg ("Uncertainty: " ^ e));
  if Strategy.length strat > inst.Instance.d then
    invalid_arg
      (Printf.sprintf "Uncertainty: strategy has %d rounds, delay allows %d"
         (Strategy.length strat) inst.Instance.d);
  match Objective.validate objective ~m:inst.Instance.m with
  | Ok () -> ()
  | Error e -> invalid_arg ("Uncertainty: " ^ e)

(* min of two intervals: the min of reals drawn from each *)
let imin a b =
  I.make (Float.min (I.lo a) (I.lo b)) (Float.min (I.hi a) (I.hi b))

let imin3 a b c = imin a (imin b c)

(* Per-device, per-round mass intervals under the perturbation ball:
   [m(i,r) − δ⁻(i,r), m(i,r) + δ⁺(i,r)] with
     δ⁻(i,r) = min(Σ_{j∈prefix} min(ε,p_j), Σ_{j∉prefix} min(ε,1−p_j), tv)
     δ⁺(i,r) = min(Σ_{j∉prefix} min(ε,p_j), Σ_{j∈prefix} min(ε,1−p_j), tv)
   — all sums interval-evaluated so the enclosure also absorbs float
   round-off. Returns rounds × devices. *)
let mass_intervals u inst strat =
  let m = inst.Instance.m and t_len = Strategy.length strat in
  let g = group_of inst strat in
  let tv_i = I.exact u.tv in
  let out = Array.make_matrix t_len m I.zero in
  for i = 0 to m - 1 do
    let p = inst.Instance.p.(i) in
    let eps = eps_for u i in
    (* per-round bucket sums of: row mass, give capacity min(ε,p),
       absorb capacity min(ε,1−p) *)
    let mass_b = Array.make t_len I.zero in
    let give_b = Array.make t_len I.zero in
    let abs_b = Array.make t_len I.zero in
    Array.iteri
      (fun j pj ->
         let r = g.(j) in
         mass_b.(r) <- I.add mass_b.(r) (I.exact pj);
         give_b.(r) <- I.add give_b.(r) (I.exact (Float.min eps pj));
         abs_b.(r) <- I.add abs_b.(r) (I.exact (Float.min eps (1.0 -. pj))))
      p;
    (* prefix/suffix accumulation across rounds *)
    let total_give = I.sum give_b and total_abs = I.sum abs_b in
    let pre_mass = ref I.zero and pre_give = ref I.zero and pre_abs = ref I.zero in
    for r = 0 to t_len - 1 do
      pre_mass := I.add !pre_mass mass_b.(r);
      pre_give := I.add !pre_give give_b.(r);
      pre_abs := I.add !pre_abs abs_b.(r);
      let suf_give = I.sub total_give !pre_give
      and suf_abs = I.sub total_abs !pre_abs in
      let d_minus = imin3 !pre_give suf_abs tv_i in
      let d_plus = imin3 suf_give !pre_abs tv_i in
      let lo = Float.max 0.0 (I.lo (I.sub !pre_mass d_minus))
      and hi = Float.min 1.0 (I.hi (I.add !pre_mass d_plus)) in
      out.(r).(i) <- I.make lo hi
    done
  done;
  out

let clamp01 = I.clamp ~lo:0.0 ~hi:1.0

let success_interval objective row =
  match objective with
  | Objective.Find_all -> clamp01 (I.product_nonneg row)
  | Objective.Find_any ->
    let misses = Array.map (fun p -> clamp01 (I.sub I.one p)) row in
    clamp01 (I.sub I.one (I.product_nonneg misses))
  | Objective.Find_at_least k ->
    let m = Array.length row in
    if k <= 0 then I.one
    else if k > m then I.zero
    else begin
      (* interval Poisson-binomial DP, mirroring Objective.tail_at_least *)
      let dp = Array.make (m + 1) I.zero in
      dp.(0) <- I.one;
      Array.iteri
        (fun i p ->
           let q = clamp01 (I.sub I.one p) in
           for j = i + 1 downto 1 do
             dp.(j) <- clamp01 (I.add (I.mul dp.(j) q) (I.mul dp.(j - 1) p))
           done;
           dp.(0) <- clamp01 (I.mul dp.(0) q))
        row;
      clamp01 (I.sum (Array.sub dp k (m - k + 1)))
    end

let ep_bounds ?(objective = Objective.Find_all) u inst strat =
  check ~objective u inst strat;
  let t_len = Strategy.length strat in
  let sizes = Strategy.sizes strat in
  let masses = mass_intervals u inst strat in
  (* EP = c − Σ_{r=0}^{t−2} |S_{r+2}|·F_r  (0-based r, F_r = success by
     round r+1); success is monotone in each mass so interval rows give
     sound F_r intervals. *)
  let terms =
    Array.init (Int.max 0 (t_len - 1)) (fun r ->
        I.scale
          (float_of_int sizes.(r + 1))
          (success_interval objective masses.(r)))
  in
  let ep = I.sub (I.of_int inst.Instance.c) (I.sum terms) in
  (* EP always pays the first group and never more than c cells. *)
  {
    lo = Float.max (float_of_int sizes.(0)) (I.lo ep);
    hi = Float.min (float_of_int inst.Instance.c) (I.hi ep);
  }

(* Canonical extremal row: move mass from the earliest-paged cells to
   the latest-paged ones (worst case) or the reverse (best case). Give
   capacity min(ε,p_j) per source, absorb capacity min(ε,1−p_j) per
   destination, total movement ≤ tv. Processing sources in ascending
   group order and destinations in descending order makes every
   prefix-mass reduction δ⁻(i,r) (resp. increase δ⁺) tight
   simultaneously — see the .mli soundness note. *)
let perturb_row ~worst g eps tv p =
  let c = Array.length p in
  let q = Array.copy p in
  if eps > 0.0 && tv > 0.0 then begin
    let order = Array.init c (fun j -> j) in
    (* ascending group order; ties by cell index keep this deterministic *)
    Array.sort
      (fun a b ->
         match compare g.(a) g.(b) with 0 -> compare a b | n -> n)
      order;
    let give_order = if worst then order else (let r = Array.copy order in
                                               let n = Array.length r in
                                               Array.init n (fun i -> r.(n - 1 - i)))
    in
    let n = Array.length order in
    let absorb_order =
      if worst then Array.init n (fun i -> order.(n - 1 - i)) else order
    in
    let give_rem = Array.map (fun pj -> Float.min eps pj) p in
    let abs_rem = Array.map (fun pj -> Float.min eps (1.0 -. pj)) p in
    let budget = ref tv in
    let gi = ref 0 and ai = ref 0 in
    let continue_ = ref true in
    while !continue_ && !budget > 0.0 && !gi < c && !ai < c do
      let gj = give_order.(!gi) and aj = absorb_order.(!ai) in
      if give_rem.(gj) <= 0.0 then incr gi
      else if abs_rem.(aj) <= 0.0 then incr ai
      else if (worst && g.(gj) >= g.(aj)) || ((not worst) && g.(gj) <= g.(aj))
      then
        (* moving within one round's group (or past it) no longer
           changes any prefix mass in the helpful direction *)
        continue_ := false
      else begin
        let amount =
          Float.min (Float.min give_rem.(gj) abs_rem.(aj)) !budget
        in
        q.(gj) <- q.(gj) -. amount;
        q.(aj) <- q.(aj) +. amount;
        give_rem.(gj) <- give_rem.(gj) -. amount;
        abs_rem.(aj) <- abs_rem.(aj) -. amount;
        if Float.is_finite !budget then budget := !budget -. amount
      end
    done
  end;
  q

let extremal_instance ~worst u inst strat =
  check u inst strat;
  let g = group_of inst strat in
  let rows =
    Array.mapi
      (fun i row -> perturb_row ~worst g (eps_for u i) u.tv row)
      inst.Instance.p
  in
  Instance.create ~d:inst.Instance.d rows

let worst_case_instance u inst strat = extremal_instance ~worst:true u inst strat
let best_case_instance u inst strat = extremal_instance ~worst:false u inst strat

let robust_ep ?(objective = Objective.Find_all) u inst strat =
  check ~objective u inst strat;
  Strategy.expected_paging ~objective (worst_case_instance u inst strat) strat

let optimistic_ep ?(objective = Objective.Find_all) u inst strat =
  check ~objective u inst strat;
  Strategy.expected_paging ~objective (best_case_instance u inst strat) strat

let to_string t =
  let eps_s =
    match t.row_eps with
    | None -> Printf.sprintf "eps=%g" t.eps
    | Some a ->
      let mn = Array.fold_left Float.min infinity a
      and mx = Array.fold_left Float.max neg_infinity a in
      Printf.sprintf "eps=per-row[%g,%g]" mn mx
  in
  if Float.is_finite t.tv then Printf.sprintf "%s tv=%g" eps_s t.tv
  else eps_s
