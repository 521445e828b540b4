(* Compressed sparse rows: row i's non-zeros sit at indices
   ptr.(i) .. ptr.(i + 1) - 1 of [cols] (ascending) and [probs]. Exact
   zeros are not stored, so a hex walk keeps at most 7 entries a row. *)
type t = { n : int; ptr : int array; cols : int array; probs : floatarray }

let cells t = t.n

let row t i =
  if i < 0 || i >= t.n then invalid_arg "Mobility.row: bad cell"
  else begin
    let out = Array.make t.n 0.0 in
    for k = t.ptr.(i) to t.ptr.(i + 1) - 1 do
      out.(t.cols.(k)) <- Float.Array.get t.probs k
    done;
    out
  end

(* The checks [create] makes on each dense row, in its order: width,
   sign, then the left-to-right sum. [not (x >= 0.0)] also catches NaN,
   which every ordered comparison fails. *)
let check_row n i row =
  if Array.length row <> n then
    invalid_arg
      (Printf.sprintf "Mobility.create: row %d has %d entries, matrix is %d-square"
         i (Array.length row) n);
  let sum = ref 0.0 in
  for j = 0 to n - 1 do
    let x = row.(j) in
    if not (x >= 0.0) then
      invalid_arg
        (if Float.is_nan x then
           Printf.sprintf "Mobility.create: NaN entry in row %d, column %d" i j
         else Printf.sprintf "Mobility.create: negative entry in row %d" i);
    sum := !sum +. x
  done;
  if abs_float (!sum -. 1.0) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Mobility.create: row %d sums to %.12g, not 1" i !sum)

(* [compress n dense] builds the model from dense rows [dense i], each
   checked before its non-zeros are kept. [dense] may hand back one
   scratch row refilled per call: its entries are read before the next
   call. The entry arrays start at 8 a row, room for any hex walk, and
   double when dense rows outgrow them. *)
let compress n dense =
  if n = 0 then invalid_arg "Mobility.create: empty matrix";
  let ptr = Array.make (n + 1) 0 in
  let cols = ref (Array.make (8 * n) 0) in
  let probs = ref (Float.Array.make (8 * n) 0.0) in
  let len = ref 0 in
  for i = 0 to n - 1 do
    let r = dense i in
    check_row n i r;
    for j = 0 to n - 1 do
      let x = r.(j) in
      if x <> 0.0 then begin
        if !len = Array.length !cols then begin
          let size = 2 * !len in
          let c = Array.make size 0 and p = Float.Array.make size 0.0 in
          Array.blit !cols 0 c 0 !len;
          Float.Array.blit !probs 0 p 0 !len;
          cols := c;
          probs := p
        end;
        !cols.(!len) <- j;
        Float.Array.set !probs !len x;
        incr len
      end
    done;
    ptr.(i + 1) <- !len
  done;
  let len = !len in
  { n; ptr; cols = Array.sub !cols 0 len; probs = Float.Array.sub !probs 0 len }

let create rows = compress (Array.length rows) (fun i -> rows.(i))

(* Rows built in one zeroed scratch row; [fill cell row] writes the
   cell's entries. *)
let build n fill =
  let scratch = Array.make n 0.0 in
  compress n (fun cell ->
      Array.fill scratch 0 n 0.0;
      fill cell scratch;
      scratch)

let random_walk hex ~stay =
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Mobility.random_walk: stay must be in [0, 1)"
  else
    build (Hex.cells hex) (fun cell row ->
        match Hex.neighbors hex cell with
        | [] ->
          (* Isolated cell (1×1 field): nowhere to leave to, so the
             leaving mass folds back and the cell is absorbing. *)
          row.(cell) <- 1.0
        | ns ->
          let share = (1.0 -. stay) /. float_of_int (List.length ns) in
          row.(cell) <- stay;
          List.iter (fun j -> row.(j) <- row.(j) +. share) ns)

let drift_walk hex ~stay ~east_bias =
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Mobility.drift_walk: stay must be in [0, 1)"
  else if east_bias < 1.0 then
    invalid_arg "Mobility.drift_walk: east_bias must be >= 1"
  else
    build (Hex.cells hex) (fun cell row ->
        let _, col = Hex.coords hex cell in
        match Hex.neighbors hex cell with
        | [] -> row.(cell) <- 1.0
        | ns ->
          let weight j =
            let _, cj = Hex.coords hex j in
            if cj > col then east_bias else 1.0
          in
          let total = List.fold_left (fun acc j -> acc +. weight j) 0.0 ns in
          row.(cell) <- stay;
          List.iter
            (fun j -> row.(j) <- row.(j) +. ((1.0 -. stay) *. weight j /. total))
            ns)

let teleport base ~jump ~target =
  if jump < 0.0 || jump > 1.0 then
    invalid_arg "Mobility.teleport: jump must be in [0, 1]"
  else if Array.length target <> base.n then
    invalid_arg "Mobility.teleport: target dimension mismatch"
  else begin
    let target = Prob.Dist.normalize (Array.copy target) in
    build base.n (fun cell row ->
        for k = base.ptr.(cell) to base.ptr.(cell + 1) - 1 do
          row.(base.cols.(k)) <- Float.Array.get base.probs k
        done;
        for j = 0 to base.n - 1 do
          row.(j) <- ((1.0 -. jump) *. row.(j)) +. (jump *. target.(j))
        done)
  end

(* [Prob.Dist.sample] on the dense row, over its non-zeros: the same
   cumulative sums (a zero adds nothing and can never be returned) and
   the same fall-through to cell n - 1, which is also what an entry in
   column n - 1, always the row's last, returns. *)
let step t rng ~cell =
  if cell < 0 || cell >= t.n then invalid_arg "Mobility.step: bad cell"
  else begin
    let u = Prob.Rng.unit_float rng in
    let last = t.ptr.(cell + 1) in
    let rec go k acc =
      if k >= last then t.n - 1
      else begin
        let acc = acc +. Float.Array.get t.probs k in
        if u < acc then t.cols.(k) else go (k + 1) acc
      end
    in
    go t.ptr.(cell) 0.0
  end

(* [next] := [v] pushed one tick. For each target, the products are
   added in ascending source order, as the dense product did; a zero
   entry contributed +0.0, which leaves a non-negative sum unchanged. *)
let push t v next =
  Array.fill next 0 t.n 0.0;
  for i = 0 to t.n - 1 do
    let vi = v.(i) in
    if vi > 0.0 then
      for k = t.ptr.(i) to t.ptr.(i + 1) - 1 do
        let j = t.cols.(k) in
        next.(j) <- next.(j) +. (vi *. Float.Array.get t.probs k)
      done
  done

let stationary t =
  let v = ref (Array.make t.n (1.0 /. float_of_int t.n)) in
  let next = ref (Array.make t.n 0.0) in
  let continue = ref true in
  let k = ref 0 in
  while !continue && !k < 10_000 do
    push t !v !next;
    if Prob.Dist.total_variation !v !next < 1e-12 then continue := false;
    let last = !v in
    v := !next;
    next := last;
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
    let next = ref (Array.make t.n 0.0) in
    for _ = 1 to steps do
      push t !v !next;
      let last = !v in
      v := !next;
      next := last
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
  (* haz.(c * dwell_cap + a): per-cell leave probability at dwell age
     a; frozen at the cap (a geometric tail approximation beyond it). *)
  haz : floatarray;
  (* Row c of the base matrix conditioned on leaving, in sparse rows:
     targets jump_col.(k), probabilities jump_p.(k) for k from
     jump_ptr.(c) to jump_ptr.(c + 1) - 1; empty iff c is absorbing. *)
  jump_ptr : int array;
  jump_col : int array;
  jump_p : floatarray;
  (* [age_dist]'s (cell × dwell-age) beliefs, laid out like [haz]:
     scratch owned by this value, so one kernel serves one domain. *)
  cur : floatarray;
  nxt : floatarray;
}

let check_dwell_cap dwell_cap =
  if dwell_cap < 1 then invalid_arg "Mobility.aging: dwell_cap must be >= 1"

let hazards ~dwell_cap law = Float.Array.init dwell_cap (residence_hazard law)

(* [hazard_row c] is cell c's hazards at dwell ages 0 .. dwell_cap - 1. *)
let make_aging ~dwell_cap base hazard_row =
  let n = base.n and cap = dwell_cap in
  let haz = Float.Array.create (n * cap) in
  for c = 0 to n - 1 do
    Float.Array.blit (hazard_row c) 0 haz (c * cap) cap
  done;
  let jump_ptr = Array.make (n + 1) 0 in
  let jump_col = Array.make (Array.length base.cols) 0 in
  let jump_p = Float.Array.make (Array.length base.cols) 0.0 in
  let len = ref 0 in
  for c = 0 to n - 1 do
    let first = base.ptr.(c) and last = base.ptr.(c + 1) - 1 in
    let stay = ref 0.0 in
    for k = first to last do
      if base.cols.(k) = c then stay := Float.Array.get base.probs k
    done;
    let out = 1.0 -. !stay in
    if out > 0.0 then
      for k = first to last do
        let j = base.cols.(k) in
        if j <> c then begin
          jump_col.(!len) <- j;
          Float.Array.set jump_p !len (Float.Array.get base.probs k /. out);
          incr len
        end
      done;
    jump_ptr.(c + 1) <- !len
  done;
  {
    base;
    dwell_cap;
    haz;
    jump_ptr;
    jump_col = Array.sub jump_col 0 !len;
    jump_p = Float.Array.sub jump_p 0 !len;
    cur = Float.Array.create (n * cap);
    nxt = Float.Array.create (n * cap);
  }

let aging ?(dwell_cap = 32) base laws =
  check_dwell_cap dwell_cap;
  if Array.length laws <> base.n then
    invalid_arg
      (Printf.sprintf
         "Mobility.aging: %d residence laws for a %d-cell model"
         (Array.length laws) base.n);
  Array.iter check_residence laws;
  make_aging ~dwell_cap base (fun c -> hazards ~dwell_cap laws.(c))

(* Every cell shares one law, so its hazard row is computed once. *)
let aging_uniform ?(dwell_cap = 32) base law =
  check_dwell_cap dwell_cap;
  check_residence law;
  let row = hazards ~dwell_cap law in
  make_aging ~dwell_cap base (fun _ -> row)

let hazard_at a ~cell ~dwell =
  if cell < 0 || cell >= a.base.n then
    invalid_arg "Mobility.hazard_at: bad cell"
  else if dwell < 0 then invalid_arg "Mobility.hazard_at: dwell must be >= 0"
  else Float.Array.get a.haz ((cell * a.dwell_cap) + Stdlib.min dwell (a.dwell_cap - 1))

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
  let first = a.jump_ptr.(cell) and last = a.jump_ptr.(cell + 1) - 1 in
  if last < first || u >= h then
    (cell, Stdlib.min (dwell + 1) (a.dwell_cap - 1))
  else begin
    (* linear inversion on the conditional jump row *)
    let rec go k acc =
      if k >= last then a.jump_col.(last)
      else begin
        let acc = acc +. Float.Array.get a.jump_p k in
        if v < acc then a.jump_col.(k) else go (k + 1) acc
      end
    in
    (go first 0.0, 0)
  end

(* Transient evolution of a location belief under the semi-Markov law:
   the belief is placed at dwell age 0 (mass was just observed there),
   then pushed [steps] ticks through the (cell, dwell-age) chain and
   marginalized back onto cells. [steps = 0] returns a copy. The
   products are added in the order of the dense kernel this replaced
   (cells, then ages, then jump targets ascending), so every sum is
   bit-identical to it. *)
let age_dist a dist ~steps =
  if steps < 0 then invalid_arg "Mobility.age_dist: steps must be >= 0"
  else if Array.length dist <> a.base.n then
    invalid_arg "Mobility.age_dist: dimension mismatch"
  else if steps = 0 then Array.copy dist
  else begin
    let n = a.base.n and cap = a.dwell_cap in
    let size = n * cap in
    let haz = a.haz and jump_col = a.jump_col and jump_p = a.jump_p in
    let cur = ref a.cur and nxt = ref a.nxt in
    Float.Array.fill !cur 0 size 0.0;
    for c = 0 to n - 1 do
      Float.Array.set !cur (c * cap) dist.(c)
    done;
    for _ = 1 to steps do
      let cur_m = !cur and nxt_m = !nxt in
      Float.Array.fill nxt_m 0 size 0.0;
      for c = 0 to n - 1 do
        let first = a.jump_ptr.(c) and last = a.jump_ptr.(c + 1) - 1 in
        let absorbing = last < first in
        let row = c * cap in
        for k = 0 to cap - 1 do
          let mass = Float.Array.get cur_m (row + k) in
          if mass > 0.0 then begin
            let k' = row + Stdlib.min (k + 1) (cap - 1) in
            if absorbing then
              Float.Array.set nxt_m k' (Float.Array.get nxt_m k' +. mass)
            else begin
              let leave = mass *. Float.Array.get haz (row + k) in
              Float.Array.set nxt_m k' (Float.Array.get nxt_m k' +. (mass -. leave));
              if leave > 0.0 then
                for e = first to last do
                  let j = jump_col.(e) * cap in
                  Float.Array.set nxt_m j
                    (Float.Array.get nxt_m j +. (leave *. Float.Array.get jump_p e))
                done
            end
          end
        done
      done;
      cur := nxt_m;
      nxt := cur_m
    done;
    let beliefs = !cur in
    let out = Array.make n 0.0 in
    for c = 0 to n - 1 do
      let s = ref 0.0 in
      for k = c * cap to (c * cap) + cap - 1 do
        s := !s +. Float.Array.get beliefs k
      done;
      out.(c) <- !s
    done;
    out
  end
