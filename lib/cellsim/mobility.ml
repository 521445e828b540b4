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

(* The checks [create] makes on each row, in its order: width, each
   entry's sign left to right, then the left-to-right sum. [not (x >=
   0.0)] also catches NaN, which every ordered comparison fails.
   [check_entry] is inlined, so an entry reaches it unboxed. *)
let[@inline] check_entry i j x =
  if not (x >= 0.0) then
    invalid_arg
      (if Float.is_nan x then
         Printf.sprintf "Mobility.create: NaN entry in row %d, column %d" i j
       else Printf.sprintf "Mobility.create: negative entry in row %d" i)

let check_sum i sum =
  if abs_float (sum -. 1.0) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Mobility.create: row %d sums to %.12g, not 1" i sum)

let check_row n i row =
  if Array.length row <> n then
    invalid_arg
      (Printf.sprintf "Mobility.create: row %d has %d entries, matrix is %d-square"
         i (Array.length row) n);
  let sum = ref 0.0 in
  for j = 0 to n - 1 do
    let x = row.(j) in
    check_entry i j x;
    sum := !sum +. x
  done;
  check_sum i !sum

(* [compress n dense] builds the model from dense rows [dense i], each
   checked before its non-zeros are kept. [dense] may hand back one
   row refilled per call: its entries are read before the next call.
   The entry arrays start at 8 a row and double when dense rows outgrow
   them. *)
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

(* Row [cell] of a hex walk: [stay] on the diagonal and
   [(1 - stay) * w j / total] on each neighbour [j], where [w j] is
   [east_bias] for a neighbour in a larger column and 1 for the others,
   and [total] adds up [w] over the neighbours in ascending order. The
   two shares are computed once a row, from the same operands as the
   dense row's per-entry expression. At [east_bias = 1] each weight and
   their sum are exact, so every share is [(1 - stay) / degree] to the
   bit. An isolated cell (1×1 field) has nowhere to leave to: the
   leaving mass folds back and it absorbs.

   The entries are visited in ascending column order: the neighbours
   below the cell, its diagonal, the neighbours above ([nbr] holds room
   for them). Unless [write], each is checked as [create] checks it and
   the row sum last; with [write], the non-zeros are stored from index
   [at] on. Either way the result is [at] plus the number of
   non-zeros. *)
let walk_row hex ~stay ~east_bias ~write nbr cols probs cell at =
  let width = hex.Hex.cols in
  let col = cell mod width in
  let degree = Hex.neighbors_into hex cell nbr in
  let total = ref 0.0 and below = ref 0 in
  for e = 0 to degree - 1 do
    let j = nbr.(e) in
    if j < cell then incr below;
    total := !total +. if j mod width > col then east_bias else 1.0
  done;
  let west = (1.0 -. stay) /. !total
  and east = (1.0 -. stay) *. east_bias /. !total in
  let len = ref at and sum = ref 0.0 in
  for e = 0 to degree do
    let j =
      if e < !below then nbr.(e) else if e = !below then cell else nbr.(e - 1)
    in
    let x =
      if j = cell then if degree = 0 then 1.0 else stay
      else if j mod width > col then east
      else west
    in
    if not write then begin
      check_entry cell j x;
      sum := !sum +. x
    end;
    if x <> 0.0 then begin
      if write then begin
        cols.(!len) <- j;
        Float.Array.set probs !len x
      end;
      incr len
    end
  done;
  if not write then check_sum cell !sum;
  !len

(* The hex walks' sparse rows, built in place in O(non-zeros): a first
   pass checks every row and counts its non-zeros into [ptr], a second
   writes them into arrays of exactly that size. Each entry is the one
   value the dense row held there ([stay], or a share added to 0.0), and
   the zeros a dense row also carried neither fail a check nor change
   its sum: a bad row fails with [create]'s text, and a good one gives
   the model [compress] would have kept. *)
let walk hex ~stay ~east_bias =
  let n = Hex.cells hex in
  let ptr = Array.make (n + 1) 0 and nbr = Array.make 6 0 in
  let no_probs = Float.Array.create 0 in
  for cell = 0 to n - 1 do
    ptr.(cell + 1) <-
      walk_row hex ~stay ~east_bias ~write:false nbr [||] no_probs cell ptr.(cell)
  done;
  let cols = Array.make ptr.(n) 0 and probs = Float.Array.create ptr.(n) in
  for cell = 0 to n - 1 do
    ignore (walk_row hex ~stay ~east_bias ~write:true nbr cols probs cell ptr.(cell))
  done;
  { n; ptr; cols; probs }

let random_walk hex ~stay =
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Mobility.random_walk: stay must be in [0, 1)"
  else walk hex ~stay ~east_bias:1.0

let drift_walk hex ~stay ~east_bias =
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Mobility.drift_walk: stay must be in [0, 1)"
  else if east_bias < 1.0 then
    invalid_arg "Mobility.drift_walk: east_bias must be >= 1"
  else walk hex ~stay ~east_bias

(* Every teleport row is dense (the target spreads over every cell), so
   it goes through [compress], one reused dense row at a time. *)
let teleport base ~jump ~target =
  if jump < 0.0 || jump > 1.0 then
    invalid_arg "Mobility.teleport: jump must be in [0, 1]"
  else if Array.length target <> base.n then
    invalid_arg "Mobility.teleport: target dimension mismatch"
  else begin
    let n = base.n in
    let target = Prob.Dist.normalize (Array.copy target) in
    let dense = Array.make n 0.0 in
    compress n (fun cell ->
        Array.fill dense 0 n 0.0;
        for k = base.ptr.(cell) to base.ptr.(cell + 1) - 1 do
          dense.(base.cols.(k)) <- Float.Array.get base.probs k
        done;
        for j = 0 to n - 1 do
          dense.(j) <- ((1.0 -. jump) *. dense.(j)) +. (jump *. target.(j))
        done;
        dense)
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

let residence_to_string r =
  let num = Wire.Spec.float_to_string in
  match r with
  | Exponential { mean } -> "exp:" ^ num mean
  | Pareto { alpha; scale } ->
    Printf.sprintf "pareto:%s:%s" (num alpha) (num scale)
  | Zipf { s; cutoff } -> Printf.sprintf "zipf:%s:%d" (num s) cutoff

let residence_of_string str =
  let num = Wire.Spec.float in
  let law =
    match Wire.Spec.parts ':' str with
    | [ ("exp" | "exponential"); mean ] ->
      Option.map (fun mean -> Exponential { mean }) (num mean)
    | [ "pareto"; alpha; scale ] ->
      (match (num alpha, num scale) with
       | Some alpha, Some scale -> Some (Pareto { alpha; scale })
       | _ -> None)
    | [ "zipf"; s; cutoff ] ->
      (match (num s, Wire.Spec.int cutoff) with
       | Some s, Some cutoff -> Some (Zipf { s; cutoff })
       | _ -> None)
    | _ -> None
  in
  match law with
  | Some r -> Result.map (fun () -> r) (validate_residence r)
  | None ->
    Error
      "residence must be exp:<mean> | pareto:<alpha>:<scale> | \
       zipf:<s>:<cutoff>"

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

(* Cell [cell]'s hazard at dwell age [dwell], frozen at the cap. *)
let[@inline] hazard_at a ~cell ~dwell =
  if cell < 0 || cell >= a.base.n then
    invalid_arg "Mobility.semi_step: bad cell"
  else if dwell < 0 then invalid_arg "Mobility.semi_step: dwell must be >= 0"
  else Float.Array.get a.haz ((cell * a.dwell_cap) + Stdlib.min dwell (a.dwell_cap - 1))

(* [Prob.Rng.unit_float], scaled here from its 53 bits: a float made in
   this module stays unboxed, one returned from [Prob] is boxed. Like
   [hazard_at] and [jump_target], it is inlined into [semi_step]. *)
let[@inline] unit_draw rng = float_of_int (Prob.Rng.bits53 rng) *. 0x1.0p-53

(* Linear inversion of [v] on the conditional jump row
   [first .. last]: the first target whose partial sum exceeds [v], or
   the last target when [v] passes them all: a loop over a float ref,
   so the partial sums stay unboxed. *)
let[@inline] jump_target a v ~first ~last =
  let k = ref first and acc = ref 0.0 and target = ref (-1) in
  while !target < 0 do
    if !k >= last then target := a.jump_col.(last)
    else begin
      acc := !acc +. Float.Array.get a.jump_p !k;
      if v < !acc then target := a.jump_col.(!k) else incr k
    end
  done;
  !target

(* One ground-truth tick of the semi-Markov walk: leave with the
   dwell-age hazard (target drawn from the conditional jump row, dwell
   resetting to 0), else stay one tick older. Absorbing cells never
   leave. Both uniforms are drawn unconditionally: exactly two draws per
   tick whatever the law or outcome, so runs that differ only in
   residence law consume motion randomness in lockstep. Only the result
   pair is allocated. *)
let semi_step a rng ~cell ~dwell =
  let h = hazard_at a ~cell ~dwell in
  let u = unit_draw rng in
  let v = unit_draw rng in
  let first = a.jump_ptr.(cell) and last = a.jump_ptr.(cell + 1) - 1 in
  if last < first || u >= h then
    (cell, Stdlib.min (dwell + 1) (a.dwell_cap - 1))
  else (jump_target a v ~first ~last, 0)

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
