type t = {
  counts : float array;
  (* stamp.(j): how many decay events counts.(j) has absorbed. Decay is
     lazy — observe only touches the observed cell, and readers catch
     cells up to [decays] on demand — so profiling is O(1) per
     observation instead of O(cells). *)
  stamp : int array;
  decay : float;
  smoothing : float;
  mutable seen : int;
  mutable decays : int;
}

let create ~cells ~decay ~smoothing =
  if cells <= 0 then invalid_arg "Profile.create: no cells"
  else if decay <= 0.0 || decay > 1.0 then
    invalid_arg "Profile.create: decay must be in (0, 1]"
  else if smoothing <= 0.0 then
    invalid_arg "Profile.create: smoothing must be positive"
  else
    {
      counts = Array.make cells 0.0;
      stamp = Array.make cells 0;
      decay;
      smoothing;
      seen = 0;
      decays = 0;
    }

let cells t = Array.length t.counts

(* Catch a cell up with the pending decay events. A lag of one uses a
   single multiply, bitwise identical to the old eager loop; larger
   lags collapse into one power (equal to the eager result up to float
   associativity, ~1 ulp per pending event). *)
let materialize_cell t j =
  let lag = t.decays - t.stamp.(j) in
  if lag > 0 then begin
    (if t.counts.(j) <> 0.0 then
       if lag = 1 then t.counts.(j) <- t.counts.(j) *. t.decay
       else t.counts.(j) <- t.counts.(j) *. (t.decay ** float_of_int lag));
    t.stamp.(j) <- t.decays
  end

let materialize t =
  if t.decay < 1.0 then
    for j = 0 to cells t - 1 do
      materialize_cell t j
    done

let observe t cell =
  if cell < 0 || cell >= cells t then invalid_arg "Profile.observe: bad cell"
  else begin
    if t.decay < 1.0 then begin
      t.decays <- t.decays + 1;
      materialize_cell t cell
    end;
    t.counts.(cell) <- t.counts.(cell) +. 1.0;
    t.seen <- t.seen + 1
  end

let observations t = t.seen

(* The smoothed counts of cells [cell_of 0 .. n - 1], built in a loop
   so that no float is boxed. *)
let smoothed t n cell_of =
  let row = Array.make n 0.0 in
  for i = 0 to n - 1 do
    row.(i) <- t.counts.(cell_of i) +. t.smoothing
  done;
  row

let distribution t =
  materialize t;
  Prob.Dist.normalize (smoothed t (cells t) Fun.id)

let distribution_over t subset =
  if Array.length subset = 0 then
    invalid_arg "Profile.distribution_over: empty subset"
  else begin
    if t.decay < 1.0 then Array.iter (fun j -> materialize_cell t j) subset;
    Prob.Dist.normalize (smoothed t (Array.length subset) (Array.get subset))
  end

let reset t =
  Array.fill t.counts 0 (cells t) 0.0;
  Array.fill t.stamp 0 (cells t) 0;
  t.seen <- 0;
  t.decays <- 0

let reseed t ?prior obs =
  reset t;
  (match prior with
   | Some subset when Array.length subset > 0 ->
     (* One pseudo-observation spread over the prior support: the
        rebuilt estimate hedges instead of claiming point confidence
        from a handful of sightings. *)
     let w = 1.0 /. float_of_int (Array.length subset) in
     Array.iter
       (fun c ->
          if c < 0 || c >= cells t then invalid_arg "Profile.reseed: bad cell"
          else t.counts.(c) <- t.counts.(c) +. w)
       subset
   | _ -> ());
  List.iter (observe t) obs

let copy t =
  {
    counts = Array.copy t.counts;
    stamp = Array.copy t.stamp;
    decay = t.decay;
    smoothing = t.smoothing;
    seen = t.seen;
    decays = t.decays;
  }

(* ------------------------------------------------------------------ *)
(* Age-dependent estimates                                             *)
(* ------------------------------------------------------------------ *)

let aged t ~aging ~age =
  if age < 0 then invalid_arg "Profile.aged: age must be >= 0"
  else if age = 0 then
    (* The frozen-snapshot path, bit for bit. *)
    distribution t
  else Mobility.age_dist aging (distribution t) ~steps:age

let aged_over t ~aging ~age subset =
  if age < 0 then invalid_arg "Profile.aged_over: age must be >= 0"
  else if Array.length subset = 0 then
    invalid_arg "Profile.aged_over: empty subset"
  else if age = 0 then distribution_over t subset
  else begin
    let full = Mobility.age_dist aging (distribution t) ~steps:age in
    let k = Array.length subset in
    let restricted = Array.make k 0.0 in
    let mass = ref 0.0 in
    for i = 0 to k - 1 do
      restricted.(i) <- full.(subset.(i));
      mass := !mass +. restricted.(i)
    done;
    if !mass <= 0.0 then
      (* All evolved mass left the subset: fall back to uniform over
         it, mirroring the diffusion path's zero-mass convention. *)
      Array.make k (1.0 /. float_of_int k)
    else Prob.Dist.normalize restricted
  end
