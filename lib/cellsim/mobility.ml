type t = { n : int; rows : float array array }

let create rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Mobility.create: empty matrix"
  else begin
    Array.iteri
      (fun i row ->
        if Array.length row <> n then
          invalid_arg
            (Printf.sprintf
               "Mobility.create: row %d has %d entries, matrix is %d-square" i
               (Array.length row) n)
        else if Array.exists (fun x -> x < 0.0) row then
          invalid_arg (Printf.sprintf "Mobility.create: negative entry in row %d" i)
        else begin
          let sum = Array.fold_left ( +. ) 0.0 row in
          if abs_float (sum -. 1.0) > 1e-9 then
            invalid_arg
              (Printf.sprintf "Mobility.create: row %d sums to %.12g, not 1" i
                 sum)
        end)
      rows;
    { n; rows = Array.map Array.copy rows }
  end

let random_walk hex ~stay =
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Mobility.random_walk: stay must be in [0, 1)"
  else begin
    let n = Hex.cells hex in
    let rows =
      Array.init n (fun cell ->
          let row = Array.make n 0.0 in
          let ns = Hex.neighbors hex cell in
          (match ns with
           | [] ->
             (* Isolated cell (1×1 field): nowhere to leave to, so the
                leaving mass folds back and the cell is absorbing. *)
             row.(cell) <- 1.0
           | _ ->
             let share = (1.0 -. stay) /. float_of_int (List.length ns) in
             row.(cell) <- stay;
             List.iter (fun j -> row.(j) <- row.(j) +. share) ns);
          row)
    in
    create rows
  end

let drift_walk hex ~stay ~east_bias =
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Mobility.drift_walk: stay must be in [0, 1)"
  else if east_bias < 1.0 then
    invalid_arg "Mobility.drift_walk: east_bias must be >= 1"
  else begin
    let n = Hex.cells hex in
    let rows =
      Array.init n (fun cell ->
          let row = Array.make n 0.0 in
          let _, col = Hex.coords hex cell in
          let ns = Hex.neighbors hex cell in
          (match ns with
           | [] -> row.(cell) <- 1.0
           | _ ->
             let weight j =
               let _, cj = Hex.coords hex j in
               if cj > col then east_bias else 1.0
             in
             let total = List.fold_left (fun acc j -> acc +. weight j) 0.0 ns in
             row.(cell) <- stay;
             List.iter
               (fun j ->
                 row.(j) <- row.(j) +. ((1.0 -. stay) *. weight j /. total))
               ns);
          row)
    in
    create rows
  end

let teleport base ~jump ~target =
  if jump < 0.0 || jump > 1.0 then
    invalid_arg "Mobility.teleport: jump must be in [0, 1]"
  else if Array.length target <> base.n then
    invalid_arg "Mobility.teleport: target dimension mismatch"
  else begin
    let target = Prob.Dist.normalize (Array.copy target) in
    let rows =
      Array.map
        (fun row ->
          Array.mapi
            (fun j x -> ((1.0 -. jump) *. x) +. (jump *. target.(j)))
            row)
        base.rows
    in
    create rows
  end

let step t rng ~cell =
  if cell < 0 || cell >= t.n then invalid_arg "Mobility.step: bad cell"
  else Prob.Dist.sample rng t.rows.(cell)

let stationary ?(iters = 10_000) ?(tol = 1e-12) t =
  let v = ref (Array.make t.n (1.0 /. float_of_int t.n)) in
  let continue = ref true in
  let k = ref 0 in
  while !continue && !k < iters do
    let next = Array.make t.n 0.0 in
    for i = 0 to t.n - 1 do
      let vi = !v.(i) in
      if vi > 0.0 then
        for j = 0 to t.n - 1 do
          next.(j) <- next.(j) +. (vi *. t.rows.(i).(j))
        done
    done;
    if Prob.Dist.total_variation !v next < tol then continue := false;
    v := next;
    incr k
  done;
  !v

let diffuse t dist ~steps =
  if steps < 0 then
    invalid_arg "Mobility.diffuse: steps must be >= 0"
  else if Array.length dist <> t.n then
    invalid_arg "Mobility.diffuse: dimension mismatch"
  else begin
    let v = ref (Array.copy dist) in
    for _ = 1 to steps do
      let next = Array.make t.n 0.0 in
      for i = 0 to t.n - 1 do
        let vi = !v.(i) in
        if vi > 0.0 then
          for j = 0 to t.n - 1 do
            next.(j) <- next.(j) +. (vi *. t.rows.(i).(j))
          done
      done;
      v := next
    done;
    !v
  end

(* ------------------------------------------------------------------ *)
(* Residence-time distributions (dwell laws)                           *)
(* ------------------------------------------------------------------ *)

type residence =
  | Exponential of { mean : float }
  | Pareto of { alpha : float; scale : float }
  | Zipf of { s : float; cutoff : int }

let validate_residence = function
  | Exponential { mean } ->
    if not (Float.is_finite mean && mean >= 1.0) then
      Error "exponential residence mean must be finite and >= 1 tick"
    else Ok ()
  | Pareto { alpha; scale } ->
    if not (Float.is_finite alpha && alpha > 0.0) then
      Error "pareto residence alpha must be finite and > 0"
    else if not (Float.is_finite scale && scale > 0.0) then
      Error "pareto residence scale must be finite and > 0"
    else Ok ()
  | Zipf { s; cutoff } ->
    if not (Float.is_finite s && s >= 0.0) then
      Error "zipf residence s must be finite and >= 0"
    else if cutoff < 1 then Error "zipf residence cutoff must be >= 1"
    else Ok ()

let check_residence r =
  match validate_residence r with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mobility residence: " ^ e)

(* Discrete Lomax tail at the age [x] (a whole number, as a float):
   polynomial decay, heavy for small alpha. This one expression is every
   Pareto survival value the module computes, so survival, hazard and
   the mean sum agree term for term. *)
let[@inline] pareto_base ~scale x = 1.0 +. (x /. scale)

let[@inline] pareto_term ~alpha ~scale x =
  if x = 0.0 then 1.0 else pareto_base ~scale x ** -.alpha

(* Survival S(a) = P(dwell > a ticks); dwell is at least one tick, so
   S(0) = 1 for every law. *)
let residence_survival r a =
  check_residence r;
  if a < 0 then invalid_arg "Mobility.residence_survival: age must be >= 0"
  else if a = 0 then 1.0
  else
    match r with
    | Exponential { mean } ->
      (* Geometric dwell with hazard 1/mean: the unique memoryless
         discrete law, i.e. the Markov-chain case. *)
      (1.0 -. (1.0 /. mean)) ** float_of_int a
    | Pareto { alpha; scale } -> pareto_term ~alpha ~scale (float_of_int a)
    | Zipf { s; cutoff } ->
      if a >= cutoff then 0.0
      else begin
        (* P(T = k) ∝ k^-s over 1..cutoff. *)
        let total = ref 0.0 and tail = ref 0.0 in
        for k = 1 to cutoff do
          let w = float_of_int k ** -.s in
          total := !total +. w;
          if k > a then tail := !tail +. w
        done;
        !tail /. !total
      end

(* Hazard h(a) = P(leave at age a | survived to a) = 1 - S(a+1)/S(a). *)
let residence_hazard r a =
  let sa = residence_survival r a in
  if sa <= 0.0 then 1.0
  else begin
    let h = 1.0 -. (residence_survival r (a + 1) /. sa) in
    Float.min 1.0 (Float.max 0.0 h)
  end

(* Mean dwell = Σ_{a≥0} S(a); diverges (→ infinity) for Pareto with
   alpha <= 1. For alpha > 1 it is the truncated float sum Σ_{a<N} S(a),
   added in age order: N is the 10^7 cap, or one past the first age whose
   survival falls below 1e-12 if that comes first. At alpha 1.6 the cap
   comes first, and the omitted tail is not negligible: 7.0e-4 at
   [Scenario.pareto_dwell], whose scale was chosen on this very float. *)
let residence_mean r =
  check_residence r;
  match r with
  | Exponential { mean } -> mean
  | Zipf { s; cutoff } ->
    let total = ref 0.0 and weighted = ref 0.0 in
    for k = 1 to cutoff do
      let w = float_of_int k ** -.s in
      total := !total +. w;
      weighted := !weighted +. (float_of_int k *. w)
    done;
    !weighted /. !total
  | Pareto { alpha; scale } ->
    if alpha <= 1.0 then infinity
    else begin
      let sum = ref 0.0 and a = ref 0 and continue = ref true in
      while !continue && !a < 10_000_000 do
        let s = pareto_term ~alpha ~scale (float_of_int !a) in
        sum := !sum +. s;
        if s < 1e-12 then continue := false;
        incr a
      done;
      !sum
    end

let residence_to_string = function
  | Exponential { mean } -> Printf.sprintf "exp:%g" mean
  | Pareto { alpha; scale } -> Printf.sprintf "pareto:%g:%g" alpha scale
  | Zipf { s; cutoff } -> Printf.sprintf "zipf:%g:%d" s cutoff

let residence_of_string str =
  let fail () =
    Error
      "residence must be exp:<mean> | pareto:<alpha>:<scale> | \
       zipf:<s>:<cutoff>"
  in
  let checked r =
    match validate_residence r with Ok () -> Ok r | Error e -> Error e
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim str)) with
  | [ ("exp" | "exponential"); mean ] ->
    (match float_of_string_opt mean with
     | Some mean -> checked (Exponential { mean })
     | None -> fail ())
  | [ "pareto"; alpha; scale ] ->
    (match float_of_string_opt alpha, float_of_string_opt scale with
     | Some alpha, Some scale -> checked (Pareto { alpha; scale })
     | _ -> fail ())
  | [ "zipf"; s; cutoff ] ->
    (match float_of_string_opt s, int_of_string_opt cutoff with
     | Some s, Some cutoff -> checked (Zipf { s; cutoff })
     | _ -> fail ())
  | _ -> fail ()

(* ------------------------------------------------------------------ *)
(* Dwell-age-expanded aging kernel                                     *)
(* ------------------------------------------------------------------ *)

type aging = {
  base : t;
  dwell_cap : int;
  (* hazard.(c).(a): per-cell leave probability at dwell age a; frozen
     at the cap (a geometric tail approximation beyond it). *)
  haz : float array array;
  (* jump.(c): (target, probability) list, the base matrix's row
     conditioned on leaving; empty iff the cell is absorbing. *)
  jump : (int * float) array array;
  laws : residence array;
}

let aging ?(dwell_cap = 32) base laws =
  if dwell_cap < 1 then invalid_arg "Mobility.aging: dwell_cap must be >= 1";
  if Array.length laws <> base.n then
    invalid_arg
      (Printf.sprintf
         "Mobility.aging: %d residence laws for a %d-cell model"
         (Array.length laws) base.n);
  Array.iter check_residence laws;
  let haz =
    Array.map
      (fun law -> Array.init dwell_cap (fun a -> residence_hazard law a))
      laws
  in
  let jump =
    Array.init base.n (fun c ->
        let row = base.rows.(c) in
        let out = 1.0 -. row.(c) in
        if out <= 0.0 then [||]
        else begin
          let targets = ref [] in
          for j = base.n - 1 downto 0 do
            if j <> c && row.(j) > 0.0 then
              targets := (j, row.(j) /. out) :: !targets
          done;
          Array.of_list !targets
        end)
  in
  { base; dwell_cap; haz; jump; laws }

let aging_uniform ?dwell_cap base law =
  aging ?dwell_cap base (Array.make base.n law)

let aging_law a ~cell =
  if cell < 0 || cell >= a.base.n then
    invalid_arg "Mobility.aging_law: bad cell"
  else a.laws.(cell)

let hazard_at a ~cell ~dwell =
  if cell < 0 || cell >= a.base.n then
    invalid_arg "Mobility.hazard_at: bad cell"
  else if dwell < 0 then invalid_arg "Mobility.hazard_at: dwell must be >= 0"
  else a.haz.(cell).(Stdlib.min dwell (a.dwell_cap - 1))

(* One ground-truth tick of the semi-Markov walk: leave with the
   dwell-age hazard (target drawn from the conditional jump row, dwell
   resetting to 0), else stay one tick older. Absorbing cells never
   leave. Every call draws exactly one uniform plus, on a jump, one
   categorical sample — the draw count does not depend on the law, so
   runs under different residence laws stay RNG-comparable. *)
let semi_step a rng ~cell ~dwell =
  let h = hazard_at a ~cell ~dwell in
  (* Both uniforms are drawn unconditionally: exactly two draws per
     tick whatever the law or outcome, so runs that differ only in
     residence law consume motion randomness in lockstep. *)
  let u = Prob.Rng.unit_float rng in
  let v = Prob.Rng.unit_float rng in
  if Array.length a.jump.(cell) = 0 || u >= h then
    (cell, Stdlib.min (dwell + 1) (a.dwell_cap - 1))
  else begin
    (* linear inversion on the conditional jump row *)
    let targets = a.jump.(cell) in
    let n = Array.length targets in
    let rec go i acc =
      if i >= n - 1 then fst targets.(n - 1)
      else begin
        let j, p = targets.(i) in
        let acc = acc +. p in
        if v < acc then j else go (i + 1) acc
      end
    in
    (go 0 0.0, 0)
  end

(* Transient evolution of a location belief under the semi-Markov law:
   the belief is placed at dwell age 0 (mass was just observed there),
   then pushed [steps] ticks through the (cell, dwell-age) chain and
   marginalized back onto cells. [steps = 0] returns a copy. *)
let age_dist a dist ~steps =
  if steps < 0 then invalid_arg "Mobility.age_dist: steps must be >= 0"
  else if Array.length dist <> a.base.n then
    invalid_arg "Mobility.age_dist: dimension mismatch"
  else if steps = 0 then Array.copy dist
  else begin
    let n = a.base.n and cap = a.dwell_cap in
    let b = Array.make_matrix n cap 0.0 in
    let nb = Array.make_matrix n cap 0.0 in
    Array.iteri (fun c mass -> b.(c).(0) <- mass) dist;
    let cur = ref b and nxt = ref nb in
    for _ = 1 to steps do
      let cur_m = !cur and nxt_m = !nxt in
      Array.iter (fun row -> Array.fill row 0 cap 0.0) nxt_m;
      for c = 0 to n - 1 do
        let targets = a.jump.(c) in
        let absorbing = Array.length targets = 0 in
        let hrow = a.haz.(c) in
        let brow = cur_m.(c) in
        for k = 0 to cap - 1 do
          let mass = brow.(k) in
          if mass > 0.0 then begin
            let k' = Stdlib.min (k + 1) (cap - 1) in
            if absorbing then nxt_m.(c).(k') <- nxt_m.(c).(k') +. mass
            else begin
              let h = hrow.(k) in
              let leave = mass *. h in
              nxt_m.(c).(k') <- nxt_m.(c).(k') +. (mass -. leave);
              if leave > 0.0 then
                Array.iter
                  (fun (j, p) -> nxt_m.(j).(0) <- nxt_m.(j).(0) +. (leave *. p))
                  targets
            end
          end
        done
      done;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp
    done;
    Array.map (fun row -> Array.fold_left ( +. ) 0.0 row) !cur
  end
