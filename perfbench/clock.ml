(* Monotonic nanosecond clock (CLOCK_MONOTONIC through bechamel's
   allocation-free stub). Plain ints, so timing a call adds no minor-heap
   words of its own. *)

let ns () = Int64.to_int (Monotonic_clock.now ())
let s () = float_of_int (ns ()) *. 1e-9
