type t = { lo : float; hi : float }

(* Outward rounding: one ulp past the computed endpoint. Round-to-nearest
   keeps the exact result within one ulp of the float result, so this is
   a sound (and cheap) substitute for switching the FPU rounding mode.
   Infinities stay put — they are already outermost. *)
let down x = if Float.is_finite x then Float.pred x else x
let up x = if Float.is_finite x then Float.succ x else x

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN endpoint"
  else if lo > hi then invalid_arg "Interval.make: lo > hi"
  else { lo; hi }

let exact x =
  if Float.is_nan x then invalid_arg "Interval.exact: NaN" else { lo = x; hi = x }

let of_int n = exact (float_of_int n)
let zero = { lo = 0.0; hi = 0.0 }
let one = { lo = 1.0; hi = 1.0 }
let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
let contains t x = t.lo <= x && x <= t.hi
let neg t = { lo = -.t.hi; hi = -.t.lo }
let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }
let sub a b = { lo = down (a.lo -. b.hi); hi = up (a.hi -. b.lo) }

let mul a b =
  let p1 = a.lo *. b.lo
  and p2 = a.lo *. b.hi
  and p3 = a.hi *. b.lo
  and p4 = a.hi *. b.hi in
  {
    lo = down (Float.min (Float.min p1 p2) (Float.min p3 p4));
    hi = up (Float.max (Float.max p1 p2) (Float.max p3 p4));
  }

let scale k t = mul (exact k) t

let clamp ~lo ~hi t =
  let l = Float.max lo t.lo and h = Float.min hi t.hi in
  if l > h then invalid_arg "Interval.clamp: empty intersection"
  else { lo = l; hi = h }

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let sum ts =
  let l = ref 0.0 and h = ref 0.0 in
  Array.iter
    (fun t ->
      l := down (!l +. t.lo);
      h := up (!h +. t.hi))
    ts;
  { lo = !l; hi = !h }

let product_nonneg ts =
  Array.iter
    (fun t ->
      if t.lo < 0.0 then invalid_arg "Interval.product_nonneg: negative operand")
    ts;
  let l = ref 1.0 and h = ref 1.0 in
  Array.iter
    (fun t ->
      l := down (!l *. t.lo);
      h := up (!h *. t.hi))
    ts;
  { lo = Float.max 0.0 !l; hi = !h }

let to_string t = Printf.sprintf "[%.17g, %.17g]" t.lo t.hi
