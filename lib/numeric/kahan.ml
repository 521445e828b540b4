type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.0; comp = 0.0 }

(* Neumaier: compensate with the rounding error of each addition, taking
   the error term from whichever operand lost its low bits. *)
let add acc x =
  let s = acc.sum +. x in
  if abs_float acc.sum >= abs_float x then
    acc.comp <- acc.comp +. (acc.sum -. s +. x)
  else acc.comp <- acc.comp +. (x -. s +. acc.sum);
  acc.sum <- s

let total acc = acc.sum +. acc.comp

let reset acc =
  acc.sum <- 0.0;
  acc.comp <- 0.0

let zero = 0.0, 0.0

let step (sum, comp) x =
  let s = sum +. x in
  let comp =
    if abs_float sum >= abs_float x then comp +. (sum -. s +. x)
    else comp +. (x -. s +. sum)
  in
  s, comp

let value (sum, comp) = sum +. comp
