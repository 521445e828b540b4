(* Order statistics. Percentiles interpolate linearly between the two
   closest ranks of the sorted sample (rank = p/100 · (n − 1)), the
   convention of numpy's default and of Python's
   statistics.quantiles(method="inclusive"). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* [percentile_sorted a p]: [a] sorted ascending, [p] in [0, 100]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample"
  else if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Stats.percentile: p must be in [0, 100]"
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.0

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty sample"
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Growable float sample. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.data 0 t.n
end
