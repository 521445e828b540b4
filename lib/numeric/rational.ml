module B = Bigint

type t = { num : B.t; den : B.t }
(* Invariants: den > 0, gcd(|num|, den) = 1, zero is 0/1. *)

let normalize num den =
  if B.is_zero den then raise Division_by_zero
  else if B.is_zero num then { num = B.zero; den = B.one }
  else begin
    let num, den = if B.sign den < 0 then B.neg num, B.neg den else num, den in
    let g = B.gcd num den in
    { num = B.div num g; den = B.div den g }
  end

let make num den = normalize num den
let zero = { num = B.zero; den = B.one }
let one = { num = B.one; den = B.one }
let of_ints a b = make (B.of_int a) (B.of_int b)
let of_int a = { num = B.of_int a; den = B.one }
let of_bigint a = { num = a; den = B.one }
let num x = x.num
let den x = x.den
let sign x = B.sign x.num
let is_zero x = B.is_zero x.num

let compare x y =
  (* x.num/x.den ? y.num/y.den  <=>  x.num*y.den ? y.num*x.den
     (denominators positive). *)
  B.compare (B.mul x.num y.den) (B.mul y.num x.den)

let equal x y = compare x y = 0
let neg x = { x with num = B.neg x.num }
let abs x = { x with num = B.abs x.num }
let inv x = normalize x.den x.num

let add x y =
  normalize
    (B.add (B.mul x.num y.den) (B.mul y.num x.den))
    (B.mul x.den y.den)

let sub x y = add x (neg y)
let mul x y = normalize (B.mul x.num y.num) (B.mul x.den y.den)
let div x y = mul x (inv y)
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let pow x k =
  if k >= 0 then { num = B.pow x.num k; den = B.pow x.den k }
  else inv { num = B.pow x.num (-k); den = B.pow x.den (-k) }

let to_float x =
  (* Scale so that both parts stay within float precision when huge. *)
  let bn = B.bit_length x.num and bd = B.bit_length x.den in
  if bn < 500 && bd < 500 then B.to_float x.num /. B.to_float x.den
  else begin
    let shift = Stdlib.max 0 (Stdlib.min bn bd - 100) in
    let scale = B.pow B.two shift in
    B.to_float (B.div x.num scale) /. B.to_float (B.div x.den scale)
  end

let to_string x =
  if B.equal x.den B.one then B.to_string x.num
  else B.to_string x.num ^ "/" ^ B.to_string x.den

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let a = B.of_string (String.sub s 0 i) in
    let b = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make a b
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (B.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       if frac = "" then invalid_arg "Rational.of_string: empty fraction"
       else begin
         let negative = String.length int_part > 0 && int_part.[0] = '-' in
         let whole =
           if int_part = "" || int_part = "-" || int_part = "+" then B.zero
           else B.of_string int_part
         in
         let scale = B.pow (B.of_int 10) (String.length frac) in
         let fnum = B.of_string frac in
         let fnum = if negative then B.neg fnum else fnum in
         add (of_bigint whole) (make fnum scale)
       end)

let sum xs = List.fold_left add zero xs
let product xs = List.fold_left mul one xs
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
