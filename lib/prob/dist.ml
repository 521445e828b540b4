(* Plain loops, summing left to right as a fold would: the same bits,
   with no float boxed per entry. *)
let normalize v =
  let n = Array.length v in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. v.(i)
  done;
  let s = !s in
  if s <= 0.0 then invalid_arg "Dist.normalize: non-positive total mass"
  else begin
    let out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      out.(i) <- v.(i) /. s
    done;
    out
  end

let is_distribution ?(eps = 1e-9) v =
  Array.length v > 0
  && Array.for_all (fun x -> x > 0.0) v
  && abs_float (Array.fold_left ( +. ) 0.0 v -. 1.0) <= eps

let uniform c =
  if c <= 0 then invalid_arg "Dist.uniform: non-positive size"
  else Array.make c (1.0 /. float_of_int c)

let zipf ~s c =
  if c <= 0 then invalid_arg "Dist.zipf: non-positive size"
  else normalize (Array.init c (fun j -> (float_of_int (j + 1)) ** -.s))

let geometric ~ratio c =
  if c <= 0 then invalid_arg "Dist.geometric: non-positive size"
  else if ratio <= 0.0 || ratio > 1.0 then
    invalid_arg "Dist.geometric: ratio must be in (0, 1]"
  else normalize (Array.init c (fun j -> ratio ** float_of_int j))

let point_mass ~eps c j =
  if c <= 0 || j < 0 || j >= c then invalid_arg "Dist.point_mass: bad index"
  else if eps <= 0.0 || eps *. float_of_int (c - 1) >= 1.0 then
    invalid_arg "Dist.point_mass: eps out of range"
  else begin
    let v = Array.make c eps in
    v.(j) <- 1.0 -. (eps *. float_of_int (c - 1));
    v
  end

let dirichlet rng ~alpha c =
  if c <= 0 then invalid_arg "Dist.dirichlet: non-positive size"
  else begin
    let v = Array.init c (fun _ -> Rng.gamma rng ~shape:alpha) in
    (* Gamma can underflow to 0 for tiny alpha; lift before normalizing. *)
    let v = Array.map (fun x -> Stdlib.max x 1e-300) v in
    normalize v
  end

let uniform_simplex rng c = dirichlet rng ~alpha:1.0 c

let shuffled rng v =
  let w = Array.copy v in
  Rng.shuffle rng w;
  w

let perturb rng ~eps v =
  if eps < 0.0 || eps >= 1.0 then invalid_arg "Dist.perturb: eps out of range"
  else begin
    let w =
      Array.map (fun x -> x *. (1.0 +. (eps *. ((2.0 *. Rng.unit_float rng) -. 1.0)))) v
    in
    normalize w
  end

let clamp_positive v = normalize (Array.map (fun x -> Stdlib.max x 1e-12) v)

let sample rng v =
  let u = Rng.unit_float rng in
  let n = Array.length v in
  let rec go j acc =
    if j >= n - 1 then n - 1
    else begin
      let acc = acc +. v.(j) in
      if u < acc then j else go (j + 1) acc
    end
  in
  go 0 0.0

let entropy v =
  Array.fold_left
    (fun acc p -> if p > 0.0 then acc -. (p *. (log p /. log 2.0)) else acc)
    0.0 v

let total_variation a b =
  if Array.length a <> Array.length b then
    invalid_arg "Dist.total_variation: length mismatch"
  else begin
    let s = ref 0.0 in
    Array.iteri (fun i x -> s := !s +. abs_float (x -. b.(i))) a;
    0.5 *. !s
  end
