type group_size =
  | Fixed of int
  | Uniform_range of int * int
  | Geometric_capped of float * int

type t = { rate : float; group_size : group_size; users : int }

let create ~rate ~group_size ~users =
  if not (Float.is_finite rate && rate > 0.0) then
    invalid_arg
      (Printf.sprintf "Traffic.create: rate must be finite and positive, got %g"
         rate)
  else if users <= 0 then invalid_arg "Traffic.create: no users"
  else begin
    (match group_size with
     | Fixed k ->
       if k < 1 || k > users then invalid_arg "Traffic.create: bad fixed size"
     | Uniform_range (lo, hi) ->
       if lo < 1 || hi < lo || hi > users then
         invalid_arg "Traffic.create: bad size range"
     | Geometric_capped (p, cap) ->
       if not (p > 0.0 && p <= 1.0) then
         invalid_arg
           (Printf.sprintf "Traffic.create: geometric p must be in (0, 1], got %g"
              p)
       else if cap < 1 || cap > users then
         invalid_arg "Traffic.create: bad geometric cap");
    { rate; group_size; users }
  end

let next_arrival t rng = Prob.Rng.exponential rng ~rate:t.rate

let sample_size t rng =
  match t.group_size with
  | Fixed k -> k
  | Uniform_range (lo, hi) -> Prob.Rng.int_range rng lo hi
  | Geometric_capped (p, cap) ->
    let rec go k =
      if k >= cap then cap
      else if Prob.Rng.unit_float rng < p then k
      else go (k + 1)
    in
    go 1

let draw_group t rng =
  let k = sample_size t rng in
  (* Partial Fisher-Yates over a fresh id array. *)
  let ids = Array.init t.users (fun i -> i) in
  for i = 0 to k - 1 do
    let j = Prob.Rng.int_range rng i (t.users - 1) in
    let tmp = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- tmp
  done;
  Array.sub ids 0 k

let rate t = t.rate
let users t = t.users
