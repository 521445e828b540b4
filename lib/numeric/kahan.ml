let zero = 0.0, 0.0

(* Neumaier: compensate with the rounding error of each addition, taking
   the error term from whichever operand lost its low bits. *)
let step (sum, comp) x =
  let s = sum +. x in
  let comp =
    if abs_float sum >= abs_float x then comp +. (sum -. s +. x)
    else comp +. (x -. s +. sum)
  in
  s, comp

let value (sum, comp) = sum +. comp
