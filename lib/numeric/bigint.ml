(* Sign-magnitude big integers over base-2^30 limbs (little-endian arrays,
   no leading zero limbs). A 63-bit native int holds the product of two
   limbs plus a carry, so schoolbook multiplication needs no splitting. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign ∈ {-1, 0, 1}; sign = 0 iff mag = [||];
   mag has no trailing (most-significant) zero limb. *)

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  let k = top n in
  if k = 0 then zero
  else if k = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 k }

(* Limbs of a non-negative native int, least significant first. *)
let limbs_of_nonneg n =
  let buf = ref [] and v = ref n in
  while !v <> 0 do
    buf := (!v land base_mask) :: !buf;
    v := !v lsr base_bits
  done;
  Array.of_list (List.rev !buf)

let of_int n =
  if n = 0 then zero
  else if n > 0 then { sign = 1; mag = limbs_of_nonneg n }
  else if n > min_int then { sign = -1; mag = limbs_of_nonneg (-n) }
  else begin
    (* abs min_int overflows; build |min_int| = 2^62 directly. *)
    let mag = Array.make 3 0 in
    mag.(2) <- 1 lsl (62 - (2 * base_bits));
    { sign = -1; mag }
  end

let one = of_int 1
let two = of_int 2

let sign x = x.sign
let is_zero x = x.sign = 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign >= 0 then compare_mag x.mag y.mag
  else compare_mag y.mag x.mag

let equal x y = compare x y = 0

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  r

(* Precondition: a >= b as magnitudes. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let s = a.(i) - bi - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then normalize x.sign (add_mag x.mag y.mag)
  else begin
    let c = compare_mag x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then normalize x.sign (sub_mag x.mag y.mag)
    else normalize y.sign (sub_mag y.mag x.mag)
  end

let sub x y = add x (neg y)

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else begin
    let a = x.mag and b = y.mag in
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      (* Propagate the final carry (may itself exceed one limb). *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize (x.sign * y.sign) r
  end

let bit_length x =
  let n = Array.length x.mag in
  if n = 0 then 0
  else begin
    let top = x.mag.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + width top 0
  end

(* Shift a magnitude left by [k] bits. *)
let shl_mag a k =
  let limb = k / base_bits and bit = k mod base_bits in
  let la = Array.length a in
  let r = Array.make (la + limb + 1) 0 in
  for i = 0 to la - 1 do
    let v = a.(i) lsl bit in
    r.(i + limb) <- r.(i + limb) lor (v land base_mask);
    r.(i + limb + 1) <- r.(i + limb + 1) lor (v lsr base_bits)
  done;
  r

(* Test bit [k] of magnitude [a]. *)
let test_bit a k =
  let limb = k / base_bits and bit = k mod base_bits in
  if limb >= Array.length a then false else (a.(limb) lsr bit) land 1 = 1

(* Binary long division on magnitudes: returns (quotient, remainder). *)
let divmod_mag a b =
  if compare_mag a b < 0 then [||], a
  else begin
    let na = ((Array.length a - 1) * base_bits) + base_bits in
    let q = Array.make (Array.length a) 0 in
    let r = ref [||] in
    (* Process bits of [a] from most significant to least. *)
    for i = na - 1 downto 0 do
      (* r := (r << 1) | bit_i(a) *)
      let r2 = shl_mag !r 1 in
      if test_bit a i then r2.(0) <- r2.(0) lor 1;
      let r2 = (normalize 1 r2).mag in
      if compare_mag r2 b >= 0 then begin
        r := sub_mag r2 b;
        r := (normalize 1 !r).mag;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
      else r := r2
    done;
    q, !r
  end

let divmod x y =
  if y.sign = 0 then raise Division_by_zero
  else if x.sign = 0 then zero, zero
  else begin
    let qm, rm = divmod_mag x.mag y.mag in
    let q = normalize (x.sign * y.sign) qm in
    let r = normalize x.sign rm in
    q, r
  end

let div x y = fst (divmod x y)
let rem x y = snd (divmod x y)

let rec gcd_aux a b = if is_zero b then a else gcd_aux b (rem a b)
let gcd a b = gcd_aux (abs a) (abs b)

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec go acc b k =
      if k = 0 then acc
      else begin
        let acc = if k land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (k lsr 1)
      end
    in
    go one x k
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_int x =
  match x.sign with
  | 0 -> Some 0
  | s ->
    if bit_length x > 62 then None
    else begin
      let v = ref 0 in
      for i = Array.length x.mag - 1 downto 0 do
        v := (!v lsl base_bits) lor x.mag.(i)
      done;
      Some (s * !v)
    end

let to_int_exn x =
  match to_int x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: does not fit in int"

(* q = ⌊num·2^k / den⌋ is taken with 55 or 56 bits and the remainder is
   the sticky bit; q keeps 53 bits, or fewer where the result falls below
   2^-1022 and its last bit is worth 2^-1074. *)
let ratio_to_float num den =
  let k = 55 - (bit_length num - bit_length den) in
  let q, r =
    if k >= 0 then divmod (mul num (pow two k)) den
    else divmod num (mul den (pow two (-k)))
  in
  let q = to_int_exn q in
  let bits = if q lsr 55 > 0 then 56 else 55 in
  let drop = Stdlib.max (bits - 53) (k - 1074) in
  (* past the last bit q is below half an ulp of 2^-1074 *)
  if drop > bits then 0.0
  else begin
    let keep = q asr drop and rest = q land ((1 lsl drop) - 1) in
    let half = 1 lsl (drop - 1) in
    let up = rest > half || (rest = half && (r.sign <> 0 || keep land 1 = 1)) in
    Float.ldexp (float_of_int (keep + Bool.to_int up)) (drop - k)
  end

(* Below 2^53 the limb sum is exact. *)
let to_float x =
  if bit_length x > 53 then float_of_int x.sign *. ratio_to_float (abs x) one
  else begin
    let f = ref 0.0 in
    for i = Array.length x.mag - 1 downto 0 do
      f := (!f *. float_of_int base) +. float_of_int x.mag.(i)
    done;
    float_of_int x.sign *. !f
  end

(* Small-divisor helpers for decimal conversion. *)
let divmod_small x d =
  assert (d > 0 && d < base);
  let n = Array.length x.mag in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl base_bits) lor x.mag.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  normalize x.sign q, !r

let mul_small x d =
  assert (d >= 0 && d < base);
  if d = 0 || x.sign = 0 then zero
  else begin
    let n = Array.length x.mag in
    let r = Array.make (n + 2) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = (x.mag.(i) * d) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    let k = ref n in
    while !carry <> 0 do
      r.(!k) <- !carry land base_mask;
      carry := !carry lsr base_bits;
      incr k
    done;
    normalize x.sign r
  end

let add_small x d = add x (of_int d)

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v =
      if is_zero v then ()
      else begin
        let q, r = divmod_small v 1_000_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go (abs x);
    (if x.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string"
  else begin
    let negative, start =
      match s.[0] with
      | '-' -> true, 1
      | '+' -> false, 1
      | _ -> false, 0
    in
    if start >= n then invalid_arg "Bigint.of_string: no digits"
    else begin
      let acc = ref zero in
      for i = start to n - 1 do
        let c = s.[i] in
        if c < '0' || c > '9' then
          invalid_arg "Bigint.of_string: invalid character"
        else acc := add_small (mul_small !acc 10) (Char.code c - Char.code '0')
      done;
      if negative then neg !acc else !acc
    end
  end

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
