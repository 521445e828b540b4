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
   Pareto survival value the module computes, so the exact mean sum and
   the bisection screen agree term for term. *)
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

(* The Pareto mean is the truncated sum Σ_{a<N} S(a). N is the 10^7
   cap, or one past the first age whose survival falls below 1e-12 if
   that comes first. At alpha 1.6 the floor is never reached before the
   cap, and the omitted tail is not negligible: 7.0e-4 at mean 6. Every
   matched-mean law and residence-pareto trajectory is defined by this
   float sum, added in age order, so [pareto_sum] returns exactly the
   float that loop returns; it just rarely calls pow to get there. *)
let pareto_cap = 10_000_000
let pareto_floor = 1e-12

(* Terms summed one by one before the blocks start. *)
let pareto_head = 2000

(* Terms per block after the head; the last block is cut at the cap. *)
let pareto_block = 1024
let pareto_block_count =
  (pareto_cap - pareto_head + pareto_block - 1) / pareto_block

(* Series mode's loop state ([pareto_steps]): on entry the differences
   q0..q4 at the sub-block's first series age and the loop's bounds, on
   return what it took. An all-float record is stored flat, so its
   fields pass in and out unboxed. *)
type pareto_steps = {
  mutable q0 : float;
  mutable q1 : float;
  mutable q2 : float;
  mutable q3 : float;
  mutable q4 : float;
  mutable lim : float;
  mutable room : float;
  mutable floor : float;
  mutable taken : float;
  mutable dmax : float;
  mutable ylast : float;
}

(* What one sum learned about each block, for the next sum at a nearby
   scale of the same alpha (DESIGN §14). [rows] is allocated at the
   first block and holds, at 5k to 5k + 4 for block k: the scale it was
   last summed at, the top of the running sum's binade there, the whole
   ulps it added, its first term (the anchor), and its clearance, a
   lower bound, in ulps, on every one of its float terms' distance to a
   half-integer of the ulp grid. A clearance of 0 (a tie, a binade
   crossing, the 1e-12 stop or a block never summed) means the block is
   always summed again. [steps] is series mode's loop state, reused by
   every sub-block. *)
type pareto_blocks = {
  alpha : float;
  mutable rows : Float.Array.t;
  mutable recomputed : int;
  mutable evaluations : int;
  mutable summed : float list;
  steps : pareto_steps;
}

let pareto_blocks ~alpha =
  {
    alpha;
    rows = Float.Array.make 0 0.0;
    recomputed = 0;
    evaluations = 0;
    summed = [];
    steps =
      {
        q0 = 0.0;
        q1 = 0.0;
        q2 = 0.0;
        q3 = 0.0;
        q4 = 0.0;
        lim = 0.0;
        room = 0.0;
        floor = 0.0;
        taken = 0.0;
        dmax = 0.0;
        ylast = 0.0;
      };
  }

let pareto_recomputed t = t.recomputed
let pareto_evaluations t = t.evaluations
let pareto_summed t = List.rev t.summed

(* A sub-block is counted by its crossings when its series values drop
   by less than 1/[pareto_flat] ulp per age from its first series age to
   its last: its two series values per crossing then number at most half
   its ages. *)
let pareto_flat = 4.0

(* The top of the binade holding [s], 2^(e+1) for s in [2^e, 2^(e+1)),
   from its exponent bits: positive, normal [s] only. *)
let[@inline] pareto_top s =
  2.0
  *. Int64.float_of_bits
       (Int64.logand (Int64.bits_of_float s) 0x7ff0000000000000L)

(* A sub-block's degree-4 binomial series (see [pareto_sum]), in ulps of
   the running sum: tc·(1 + e)^-α at e = j/(scale·b0). *)
let[@inline] pareto_series ~tc ~k1 ~k2 ~k3 ~k4 e =
  tc +. (e *. (k1 +. (e *. (k2 +. (e *. (k3 +. (e *. k4)))))))

(* Crossing mode (DESIGN §14). y_j is the series value of the
   sub-block's age j = 1..n, y1 and yn its ends. Every float term, and
   the real term, which decreases in age, lie within [w] of y. Each
   half-integer level L in (yn, y1) is crossed once: the ages m and m + 1
   around it are found from the chord through the ends, and certified
   when both values lie more than 2w from L. The real term is then above
   L + w up to age m and below L - w after it, so every float term of
   ages 1..m is above L and every later one below. With the ends more
   than 2w inside the levels beyond them, the sub-block adds
   n·rne(yn) + Σ_L m whole ulps, no term is a tie, and each lies at
   least the smallest of those distances less 2w from a half-integer;
   the block's clearance, gathered in its row at [ci], is lowered to that.
   Returns the count, or -1 (and no clearance) when a crossing or an end
   is within 2w of a level, when yn is below [floor_y], or when the
   count reaches [room]: the sub-block is then summed term by term.
   Inlined, so no argument is boxed. *)
let[@inline] pareto_crossings t ~ci ~tc ~k1 ~k2 ~k3 ~k4 ~inv ~n ~y1 ~yn
    ~w ~floor_y ~room =
  let w2 = 2.0 *. w in
  let r1 = y1 +. 0x1p52 -. 0x1p52 and rn = yn +. 0x1p52 -. 0x1p52 in
  let near = ref (r1 +. 0.5 -. y1) in
  if yn -. (rn -. 0.5) < !near then near := yn -. (rn -. 0.5);
  let ok = ref (yn >= floor_y && !near > w2) in
  let total = ref (n *. rn) and level = ref (rn +. 0.5) in
  let slope = (n -. 1.0) /. (y1 -. yn) in
  while !ok && !level < r1 do
    let l = !level in
    (* m from the chord, in [1, n - 1]: y1 >= l, so est >= 1. *)
    let est = 1.0 +. ((y1 -. l) *. slope) in
    let m =
      ref (if est >= n -. 1.0 then n -. 1.0 else Float.of_int (Float.to_int est))
    in
    let ya = ref (pareto_series ~tc ~k1 ~k2 ~k3 ~k4 (!m *. inv)) in
    let yb = ref (pareto_series ~tc ~k1 ~k2 ~k3 ~k4 ((!m +. 1.0) *. inv)) in
    t.evaluations <- t.evaluations + 2;
    while !ya <= l && !m > 1.0 do
      m := !m -. 1.0;
      yb := !ya;
      ya := pareto_series ~tc ~k1 ~k2 ~k3 ~k4 (!m *. inv);
      t.evaluations <- t.evaluations + 1
    done;
    while !yb >= l && !m +. 1.0 < n do
      m := !m +. 1.0;
      ya := !yb;
      yb := pareto_series ~tc ~k1 ~k2 ~k3 ~k4 ((!m +. 1.0) *. inv);
      t.evaluations <- t.evaluations + 1
    done;
    let above = !ya -. l and below = l -. !yb in
    if above > w2 && below > w2 then begin
      total := !total +. !m;
      if above < !near then near := above;
      if below < !near then near := below;
      level := l +. 1.0
    end
    else ok := false
  done;
  if !ok && !total < room then begin
    if !near -. w2 < Float.Array.get t.rows ci then
      Float.Array.set t.rows ci (!near -. w2);
    !total
  end
  else -1.0

(* Series mode steps Q(j) = tc + Σ_k b_k·j^k, b_k = k_k·inv^k (the
   series at e = j·inv), by forward differences D^i, started from the
   b_k at j = 1. This bounds, in ulps, how far its values for
   j = 1..n lie from Q's, Q taken exactly on the float k_k and inv
   (DESIGN §14, "Stepping the series"). a_i bounds |Δ^i Q| at the ages
   the recurrence reads, j + i <= n + 4. The start-up rounds D^i by at
   most 8u·a_i, which reaches D^0 after j - 1 steps with weight
   C(j - 1, i); each step rounds D^i by at most u·a_i, and those reach
   D^0 with weights summing to C(j - 1, i + 1). The 1% cushion covers
   second-order terms and evaluating the bound. *)
let[@inline] pareto_steps_error ~tc ~b1 ~b2 ~b3 ~b4 n =
  let p1 = Float.abs b1 and p2 = Float.abs b2 in
  let p3 = Float.abs b3 and p4 = Float.abs b4 in
  let m = n +. 4.0 and k = n -. 1.0 in
  let a0 = tc +. (m *. (p1 +. (m *. (p2 +. (m *. (p3 +. (m *. p4))))))) in
  let a1 =
    p1 +. (m *. ((2.0 *. p2) +. (m *. ((3.0 *. p3) +. (m *. (4.0 *. p4))))))
  in
  let a2 = (2.0 *. p2) +. (m *. ((6.0 *. p3) +. (m *. (12.0 *. p4)))) in
  let a3 = (6.0 *. p3) +. (m *. (24.0 *. p4)) in
  let a4 = 24.0 *. p4 in
  let start =
    a0
    +. (k
        *. (a1 +. (k /. 2.0 *. (a2 +. (k /. 3.0 *. (a3 +. (k /. 4.0 *. a4)))))))
  in
  let steps =
    k *. (a0 +. (k /. 2.0 *. (a1 +. (k /. 3.0 *. (a2 +. (k /. 4.0 *. a3))))))
  in
  1.01 *. (epsilon_float /. 2.0) *. ((8.0 *. start) +. steps)

(* Series mode's term loop over a sub-block's ages j = 1..n, stepping
   y = q0 by q0 += q1, q1 += q2, q2 += q3, q3 += q4. A value is taken
   while it lies less than [lim] from a whole number, the whole ulps
   taken stay below [room], and it is at least [floor]; [taken], [dmax]
   (the largest such distance) and [ylast] (the last value taken) are
   set on return. Returns the first age not taken, n + 1 when all are.
   Out of line, so the differences stay in registers: inlined into
   [pareto_sum], they were spilled to the stack, and the loop ran ~1.3x
   slower. *)
let[@inline never] pareto_steps s n =
  let q0 = ref s.q0 and q1 = ref s.q1 and q2 = ref s.q2 and q3 = ref s.q3 in
  let q4 = s.q4 and lim = s.lim and room = s.room and floor = s.floor in
  let taken = ref 0.0 and dmax = ref 0.0 and ylast = ref 0.0 in
  let j = ref 1 and taking = ref true in
  while !taking && !j <= n do
    let y = !q0 in
    let r = y +. 0x1p52 -. 0x1p52 in
    let taken' = !taken +. r in
    let d = Float.abs (y -. r) in
    if d >= lim || taken' >= room || y < floor then taking := false
    else begin
      if d > !dmax then dmax := d;
      ylast := y;
      taken := taken';
      incr j;
      q0 := !q0 +. !q1;
      q1 := !q1 +. !q2;
      q2 := !q2 +. !q3;
      q3 := !q3 +. q4
    end
  done;
  s.taken <- !taken;
  s.dmax <- !dmax;
  s.ylast <- !ylast;
  !j

(* The sequential sum, bit for bit (DESIGN §14). After the head the sum
   S is at least 1 and a multiple of its ulp, so while S + t stays below
   the next power of two, fl(S + t) = S + rne(t/ulp)·ulp: a term only
   has to be known well enough to round it to whole ulps.

   A block keeps its recorded ulps, with no term computed, when S is in
   its recorded binade, S plus those ulps stays below the binade's top,
   and no term can have moved by its clearance since it was summed at
   scale sb. With r = |scale − sb|/min(scale, sb), the real term
   T(x, s) = (1 + x/s)^-α moves by at most α·r·T(x0, max scale), since
   it grows in s and falls in x, and each float term is within
   (2α + 4)u of it at either scale: z below is the sum, relative to
   T(x0, max scale), which is at most the anchor times 1 + 2z for
   z <= 2^-7. The bound carries a 1% cushion for its own evaluation and
   2^-50 ulps for the clearance's.

   Otherwise the block is summed again. Each sub-block starts at an
   anchor, the real term at x0 with base b0, added as a plain float.
   The next terms are t0·(1 + e)^-α with e = j/(scale·b0) <= emax,
   taken from the degree-4 binomial series (alternating, so the
   truncation is below the first omitted term). [w] bounds the distance
   between the series value y and the real term, both in ulps of S:
   pow's one-ulp error at the anchor and at the real term, the rounding
   of both bases, the truncation, and the evaluation of y and of e, with
   a 1% cushion. A sub-block whose values fall by less than
   1/[pareto_flat] ulp per age is counted by its crossings of the
   half-integers ([pareto_crossings]). Any other, or one that cannot be
   counted, is summed term by term from the series stepped by forward
   differences, whose rounding [pareto_steps_error] bounds by e: a term
   is taken only when y is more than w + e from a half-integer, it stays
   in S's binade, and y − 2(w + e) clears the 1e-12 stop; otherwise the
   sub-block ends and that term is the next anchor. Whole ulps gather in
   the float [acc], exact below 2^53, and join S when the sub-block
   ends. y is rounded as [(y + 2^52) - 2^52], exact for 0 <= y < 2^51:
   no int conversion (a cvtsi2sd round trip made the loop 1.4x slower)
   and no branch on the rounding direction. The age runs as a float too,
   exact below 2^53. Nothing in the loop allocates: every float stays
   unboxed. Callers pass a finite alpha > 0 and scale > 0, or laws whose
   sum ends inside the head ([pareto_mean_screen] sums only those). *)
let pareto_sum t ~scale =
  let alpha = t.alpha in
  t.summed <- scale :: t.summed;
  let sum = ref 0.0 and x = ref 0.0 and continue = ref true in
  let cap = float_of_int pareto_cap and head = float_of_int pareto_head in
  while !continue && !x < head do
    let s = pareto_term ~alpha ~scale !x in
    sum := !sum +. s;
    if s < pareto_floor then continue := false;
    x := !x +. 1.0
  done;
  t.recomputed <- t.recomputed + Float.to_int !x;
  t.evaluations <- t.evaluations + Float.to_int !x;
  if !continue && !x < cap then begin
    if Float.Array.length t.rows = 0 then
      t.rows <- Float.Array.make (5 * pareto_block_count) 0.0;
    let rows = t.rows in
    let u = epsilon_float /. 2.0 in
    (* emax <= 1/(alpha + 5) keeps the series' terms past degree 4
       decreasing, and alpha·emax < 1. *)
    let emax =
      if 1.0 /. (alpha +. 5.0) < 0x1p-9 then 1.0 /. (alpha +. 5.0) else 0x1p-9
    in
    let c1 = -.alpha in
    let c2 = alpha *. (alpha +. 1.0) /. 2.0 in
    let c3 = -.c2 *. (alpha +. 2.0) /. 3.0 in
    let c4 = -.c3 *. (alpha +. 3.0) /. 4.0 in
    let c5 = c4 *. (alpha +. 4.0) /. 5.0 in
    let e2 = emax *. emax in
    (* [rel] is relative to t0, the largest term of its sub-block.
       h = (1 - emax)^-α bounds Σ|c_k|·e^k, for the Horner part, and
       h·α/(1 - emax) bounds Σ k|c_k|·e^(k-1), for the rounding of e. *)
    let h = (1.0 -. emax) ** -.alpha in
    let rel =
      1.01
      *. ((c5 *. e2 *. e2 *. emax)
         +. (u
             *. (4.0 +. (4.01 *. alpha)
                 +. (h *. (17.01 +. (3.01 *. alpha *. emax /. (1.0 -. emax)))))))
    in
    let term_err = ((4.0 *. alpha) +. 8.0) *. u in
    let block = float_of_int pareto_block in
    let k = ref 0 in
    while !continue && !x < cap do
      let i = 5 * !k in
      let xe = if !x +. block < cap then !x +. block else cap in
      let s0 = !sum in
      let sb = Float.Array.get rows i in
      let top_b = Float.Array.get rows (i + 1) in
      let c_b = 0x1p53 /. top_b in
      let s1 = s0 +. (Float.Array.get rows (i + 2) /. c_b) in
      let anchor_b = Float.Array.get rows (i + 3) in
      let clear_b = Float.Array.get rows (i + 4) in
      let z =
        (alpha *. Float.abs (scale -. sb) /. if scale < sb then scale else sb)
        +. term_err
      in
      if
        clear_b > 0.0 && s0 >= 0.5 *. top_b && s1 < top_b && z <= 0x1p-7
        && (1.01 *. c_b *. anchor_b *. z *. (1.0 +. (2.0 *. z))) +. 0x1p-50
           < clear_b
      then begin
        sum := s1;
        x := xe
      end
      else begin
        let top0 = pareto_top s0 in
        let c0 = 0x1p53 /. top0 in
        let x0 = !x and anchor = ref 0.0 in
        (* The clearance gathers in the block's row, at [ci]; [last] is
           a lower bound on the latest term, in ulps. *)
        let ci = i + 4 in
        Float.Array.set rows ci 0.5;
        let last = ref 0.0 in
        while !continue && !x < xe do
          let b0 = pareto_base ~scale !x in
          let t0 = b0 ** -.alpha in
          t.evaluations <- t.evaluations + 1;
          if !x = x0 then anchor := t0;
          sum := !sum +. t0;
          if t0 < pareto_floor then continue := false;
          x := !x +. 1.0;
          (* The anchor's own rounding is exact: 0 on a tie. *)
          let tc0 = t0 *. c0 in
          last := tc0;
          let d =
            if tc0 < 0x1p50 then
              0.5 -. Float.abs (tc0 -. (tc0 +. 0x1p52 -. 0x1p52))
            else 0.0
          in
          if d < Float.Array.get rows ci then Float.Array.set rows ci d;
          let s = !sum in
          (* S lies in [top/2, top), a binade whose ulp is 1/c. *)
          let top = pareto_top s in
          let c = 0x1p53 /. top in
          let tc = t0 *. c in
          let reach = emax *. scale *. b0 and left = xe -. !x in
          let n = Float.to_int (if reach < left then reach else left) in
          let jmax = Float.of_int n in
          if !continue && n >= 1 && tc < 0x1p50 then begin
            let w = (tc *. rel) +. 0x1p-50 in
            let floor_y = (c *. pareto_floor) +. (2.0 *. w) in
            let room = (top -. s) *. c in
            let inv = 1.0 /. (scale *. b0) in
            let k1 = tc *. c1 and k2 = tc *. c2 and k3 = tc *. c3 and k4 = tc *. c4 in
            (* A sub-block whose values fall slowly is counted by its
               crossings; any other, or one that cannot be, is summed
               term by term. *)
            let acc = ref (-1.0) and j = ref (n + 1) in
            if n >= 2 then begin
              let y1 = pareto_series ~tc ~k1 ~k2 ~k3 ~k4 inv
              and yn = pareto_series ~tc ~k1 ~k2 ~k3 ~k4 (jmax *. inv) in
              t.evaluations <- t.evaluations + 2;
              if (y1 -. yn) *. pareto_flat < jmax then begin
                acc :=
                  pareto_crossings t ~ci ~tc ~k1 ~k2 ~k3 ~k4 ~inv ~n:jmax ~y1
                    ~yn ~w ~floor_y ~room;
                if !acc >= 0.0 then last := yn -. w
              end
            end;
            if !acc < 0.0 then begin
              (* Q(j) and its differences at j = 1, from the b_k: never
                 from series values, whose differences cancel. *)
              let i2 = inv *. inv in
              let b1 = k1 *. inv and b2 = k2 *. i2 in
              let b3 = k3 *. (i2 *. inv) and b4 = k4 *. (i2 *. i2) in
              let st = t.steps in
              st.q0 <- tc +. (b1 +. (b2 +. (b3 +. b4)));
              st.q1 <- b1 +. ((3.0 *. b2) +. ((7.0 *. b3) +. (15.0 *. b4)));
              st.q2 <- (2.0 *. b2) +. ((12.0 *. b3) +. (50.0 *. b4));
              st.q3 <- (6.0 *. b3) +. (60.0 *. b4);
              st.q4 <- 24.0 *. b4;
              let e = pareto_steps_error ~tc ~b1 ~b2 ~b3 ~b4 jmax in
              let we = w +. e in
              st.lim <- 0.5 -. we;
              st.room <- room;
              st.floor <- floor_y +. (2.0 *. e);
              j := pareto_steps st n;
              acc := st.taken;
              t.evaluations <- t.evaluations + if !j > n then n else !j;
              if !j > 1 then begin
                (* The 2^-50 in [w] covers rounding these two bounds. *)
                if st.lim -. st.dmax < Float.Array.get rows ci then
                  Float.Array.set rows ci (st.lim -. st.dmax);
                last := st.ylast -. we
              end
            end;
            sum := !sum +. (!acc /. c);
            x := !x +. Float.of_int (!j - 1)
          end
        done;
        t.recomputed <- t.recomputed + Float.to_int (!x -. x0);
        (* Each float term is within term_err/2 of the real, decreasing
           function, so none is below [last]·(1 - term_err); twice that
           covers rounding. A kept block moves less than this room, so
           it cannot meet the stop. *)
        let floor_room =
          (!last *. (1.0 -. (2.0 *. term_err))) -. (c0 *. pareto_floor)
        in
        let clear = Float.Array.get rows ci in
        Float.Array.set rows i scale;
        Float.Array.set rows (i + 1) top0;
        Float.Array.set rows (i + 2) ((!sum -. s0) *. c0);
        Float.Array.set rows (i + 3) !anchor;
        Float.Array.set rows ci
          (if !sum >= top0 || not !continue then 0.0
           else if clear < floor_room then clear
           else floor_room)
      end;
      incr k
    done
  end;
  !sum

(* Mean dwell = Σ_{a≥0} S(a); diverges (→ infinity) for Pareto with
   alpha <= 1, and is the truncated [pareto_sum] for alpha > 1. *)
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
    if alpha <= 1.0 then infinity else pareto_sum (pareto_blocks ~alpha) ~scale

(* The term count of [pareto_sum]. Consecutive bases 1 + a/scale differ
   by a relative 1/(scale + a) > 9e-10 at every scale the bisection
   visits (up to 2^30), millions of ulps, and pow is accurate to within
   one ulp, so the computed terms strictly decrease in [a]: the first
   one below the floor is found by bisection on the same float
   expression. *)
let pareto_terms ~alpha ~scale =
  let below a = pareto_term ~alpha ~scale (float_of_int a) < pareto_floor in
  if not (below (pareto_cap - 1)) then pareto_cap
  else begin
    (* invariant: below !hi, not (below !lo) *)
    let lo = ref 0 and hi = ref (pareto_cap - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if below mid then hi := mid else lo := mid
    done;
    !hi + 1
  end

type pareto_screen = { value : float; margin : float; terms : int }

(* A closed-form value of the same truncated sum, and a rigorous bound
   on its distance from [pareto_sum] (DESIGN §14). With
   f(x) = (1 + x/s)^-α the first K terms are summed exactly as
   [pareto_sum] sums them, and Σ_{K<=a<N} f(a) is Euler–Maclaurin's
     ∫_K^N f + (f(K) − f(N))/2 + (f'(N) − f'(K))/12
       − (f'''(N) − f'''(K))/720,
   whose remainder is at most 2ζ(5)/(2π)^5 · f''''(K) < 2.12e-4 · f''''(K).
   The margin adds the recursive-summation bound of both float sums,
   (N + K)·u·G, the pow and division error of every term, (2α + 4)·u
   each, that of the closed form, and a 1% cushion for evaluating the
   bound itself. The remainder bound holds for any K; at K = 64 it is
   ~6e-15 at (1.6, mean 6), far under the ~6.7e-9 summation part.
   When N is at most [pareto_head] the value is the exact sum, margin
   zero. *)
let pareto_mean_screen ~alpha ~scale =
  let n = pareto_terms ~alpha ~scale and k = 64 in
  if n <= pareto_head then
    { value = pareto_sum (pareto_blocks ~alpha) ~scale; margin = 0.0; terms = n }
  else begin
    let head = ref 0.0 in
    for a = 0 to k - 1 do
      head := !head +. pareto_term ~alpha ~scale (float_of_int a)
    done;
    (* One pow per end point: with w = 1/(s + x), f' = −α·w·f,
       f''' = −α(α+1)(α+2)·w³·f, f'''' = α(α+1)(α+2)(α+3)·w⁴·f and
       ∫_x^∞ f = (s + x)/(α − 1)·f. The d terms below are −f' and −f'''. *)
    let at x =
      let sx = scale +. float_of_int x in
      ((1.0 +. (float_of_int x /. scale)) ** -.alpha, 1.0 /. sx, sx)
    in
    let fk, wk, sk = at k and fn, wn, sn = at n in
    let c3 = alpha *. (alpha +. 1.0) *. (alpha +. 2.0) in
    let ik = sk /. (alpha -. 1.0) *. fk and in_ = sn /. (alpha -. 1.0) *. fn in
    let d1k = alpha *. wk *. fk and d1n = alpha *. wn *. fn in
    let d3k = c3 *. (wk *. wk *. wk) *. fk
    and d3n = c3 *. (wn *. wn *. wn) *. fn in
    let tail =
      (ik -. in_)
      +. ((fk -. fn) /. 2.0)
      +. ((d1k -. d1n) /. 12.0)
      -. ((d3k -. d3n) /. 720.0)
    in
    let value = !head +. tail in
    let magnitude =
      ik +. in_
      +. ((fk +. fn) /. 2.0)
      +. ((d1k +. d1n) /. 12.0)
      +. ((d3k +. d3n) /. 720.0)
    in
    let u = epsilon_float /. 2.0 in
    let remainder =
      2.12e-4 *. c3 *. (alpha +. 3.0) *. (wk *. wk *. wk *. wk) *. fk
    in
    let margin =
      1.01
      *. ((u
           *. (((float_of_int (n + k) +. (4.0 *. alpha) +. 9.0) *. value)
              +. (((2.0 *. alpha) +. 20.0) *. magnitude)))
          +. remainder)
    in
    { value; margin; terms = n }
  end

(* The relative scale gap past which no float term falls (DESIGN §14):
   for scales s < s' with (s' - s)/s' >= [pareto_gap ~alpha s'], every
   float term at s' is at least the term of the same age at s, so
   F(s) <= F(s'). Each base 1 + x/σ is within u(1 + u)(1 + 2x/σ) of its
   real value, and for x >= 1, x/(σ + x) >= 1/(1 + σ): the float bases
   then differ by a relative δ with (1 + αδ)(1 - 2u) >= 1 + 2u, which
   covers pow's one ulp (2u) at both, since (1 + δ)^α >= 1 + αδ for
   α > 1. The age-0 term is 1 at both scales. fl(S + t) is monotone in
   S and in t, and the 1e-12 stop comes no earlier at s'. *)
let pareto_gap ~alpha s =
  let u = epsilon_float /. 2.0 in
  (4.0 *. u) +. ((1.0 +. s) *. ((2.01 *. u) +. (4.01 *. u /. alpha)))

(* The bracketing probes sit a relative 2^-40 from the screen's root,
   then 16 times farther each, up to 2^-20: past the screen's reach
   (~2^-30 at (1.6, 6)), which ends the probes sooner. *)
let pareto_probe_first = 0x1p-40
let pareto_probe_last = 0x1p-20

(* Bisection on the scale parameter: the truncated mean is continuous
   and strictly increasing in the scale, so a heavy-tailed law can be
   matched to an exponential one's mean for like-for-like variance
   comparisons. The match is to the truncated mean [residence_mean]
   reports, not the law's true mean; changing that would move every
   residence-pareto trajectory. Every comparison has the exact sum's
   outcome, and the loop stops once the midpoint equals an end point,
   after which each step is a no-op: the scale is the float a full
   80-step bisection on exact sums returns. At the first step the screen
   cannot decide, exact sums at the root of the screen's closed form and
   just past it on the open side bracket the threshold; later steps are
   decided from those outcomes by [pareto_gap] where they are far
   enough from them. The exact sums share one block table, so each
   keeps what the previous ones proved. *)
let pareto_match t ~mean =
  let alpha = t.alpha in
  if not (Float.is_finite alpha && alpha > 1.0) then
    invalid_arg "Mobility.pareto_with_mean: alpha must be > 1 (finite mean)"
  else if not (Float.is_finite mean && mean >= 1.0) then
    invalid_arg "Mobility.pareto_with_mean: mean must be finite and >= 1"
  else begin
    (* [pareto_sum t ~scale < mean] when the closed form clears the
       screen's margin. *)
    let screened scale =
      let s = pareto_mean_screen ~alpha ~scale in
      if s.value -. mean > s.margin then Some false
      else if mean -. s.value > s.margin then Some true
      else None
    in
    (* Every exact outcome so far, as (scale, sum < mean). *)
    let known = ref [] in
    let exact scale =
      let b = pareto_sum t ~scale < mean in
      known := (scale, b) :: !known;
      b
    in
    (* An outcome a known one implies, F being monotone across a gap of
       [pareto_gap]; the factor 2 covers rounding the comparison. *)
    let implied mid =
      List.find_map
        (fun (p, b) ->
          if (not b) && mid >= p *. (1.0 +. (2.0 *. pareto_gap ~alpha mid))
          then Some false
          else if b && p >= mid *. (1.0 +. (2.0 *. pareto_gap ~alpha p)) then
            Some true
          else None)
        !known
    in
    (* At most 80 midpoints of [lo, hi], stopping once the midpoint
       equals an end point; [below lo hi mid] says which half to keep. *)
    let bisect lo hi below =
      let lo = ref lo and hi = ref hi in
      let steps = ref 0 and fixed = ref false in
      while (not !fixed) && !steps < 80 do
        let mid = 0.5 *. (!lo +. !hi) in
        if mid = !lo || mid = !hi then fixed := true
        else if below !lo !hi mid then lo := mid
        else hi := mid;
        incr steps
      done;
      0.5 *. (!lo +. !hi)
    in
    (* Sum exactly at the root of the screen's value in [lo, hi], then a
       relative [rho] past it on the side its outcome leaves open, [rho]
       growing until the threshold is bracketed or the screen decides. *)
    let probe lo hi =
      let root =
        bisect lo hi (fun _ _ mid ->
            (pareto_mean_screen ~alpha ~scale:mid).value < mean)
      in
      let b = exact root in
      let rho = ref pareto_probe_first and open_side = ref true in
      while !open_side && !rho <= pareto_probe_last do
        let p = root *. if b then 1.0 +. !rho else 1.0 -. !rho in
        (match screened p with
         | Some _ -> open_side := false
         | None -> open_side := exact p = b);
        rho := !rho *. 16.0
      done
    in
    let probed = ref false in
    (* [pareto_sum t ~scale < mean]: from the screen, then from a known
       outcome, then from the exact sum. A bisection step passes its
       bracket, to probe around the first scale the screen leaves. *)
    let below ?bracket scale =
      match screened scale with
      | Some b -> b
      | None -> (
        (match bracket with
         | Some (lo, hi) when not !probed ->
           probed := true;
           probe lo hi
         | _ -> ());
        match implied scale with Some b -> b | None -> exact scale)
    in
    let unreachable what scale =
      invalid_arg
        (Printf.sprintf
           "Mobility.pareto_with_mean: mean %g is unreachable at alpha %g \
            (the truncated mean %s scale %g)"
           mean alpha what scale)
    in
    (* A sum equal to [mean] at the lowest scale still matches, at the
       bisection's fixed point there; a sum above [mean] cannot. *)
    let lo = ref 1e-6 and hi = ref 1.0 in
    if (not (below !lo)) && pareto_sum t ~scale:!lo > mean then
      unreachable "exceeds it already at" !lo;
    let short = ref (below !hi) in
    while !short && !hi < 1e9 do
      hi := !hi *. 2.0;
      short := below !hi
    done;
    if !short then unreachable "stays below it up to" !hi;
    let scale = bisect !lo !hi (fun lo hi mid -> below ~bracket:(lo, hi) mid) in
    Pareto { alpha; scale }
  end

let pareto_with_mean ~alpha ~mean = pareto_match (pareto_blocks ~alpha) ~mean

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
