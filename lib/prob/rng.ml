(* xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.

   The four 64-bit state words live unboxed in one 32-byte [Bytes]
   (native byte order, offsets 0, 8, 16, 24): mutable [int64] record
   fields would box a fresh word on every store, so every draw would
   allocate. [bits64] is inlined into the draws below, which then
   allocate nothing beyond their own boxed result. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    set t (8 * k) (splitmix64_next state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 8 (logxor s1 s2);
  set t 16 (logxor s2 (shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create ~seed

let copy = Bytes.copy

(* Rejection sampling on the high 62 bits to avoid modulo bias. A
   top-level loop, not a local closure, so a draw allocates nothing. *)
let rec int_below t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound"
  else int_below t bound

let int_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_range: empty range"
  else lo + int t (hi - lo + 1)

let unit_float t =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r *. 0x1.0p-53

let float t bound = unit_float t *. bound
let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array"
  else a.(int t (Array.length a))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: non-positive rate"
  else -.log (1.0 -. unit_float t) /. rate

let normal t =
  let rec nonzero () =
    let u = unit_float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = unit_float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let rec gamma t ~shape =
  if shape <= 0.0 then invalid_arg "Rng.gamma: non-positive shape"
  else if shape < 1.0 then begin
    (* Boost: Gamma(a) = Gamma(a+1) * U^(1/a). *)
    let g = gamma t ~shape:(shape +. 1.0) in
    let u =
      let rec nonzero () =
        let u = unit_float t in
        if u > 0.0 then u else nonzero ()
      in
      nonzero ()
    in
    g *. (u ** (1.0 /. shape))
  end
  else begin
    (* Marsaglia–Tsang squeeze. *)
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec go () =
      let x = normal t in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then go ()
      else begin
        let v3 = v *. v *. v in
        let u = unit_float t in
        if u < 1.0 -. (0.0331 *. x *. x *. x *. x) then d *. v3
        else if u > 0.0 && log u < (0.5 *. x *. x) +. (d *. (1.0 -. v3 +. log v3))
        then d *. v3
        else go ()
      end
    in
    go ()
  end

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: negative mean"
  else if mean = 0.0 then 0
  else if mean > 500.0 then begin
    let x = (normal t *. sqrt mean) +. mean in
    Stdlib.max 0 (int_of_float (Float.round x))
  end
  else begin
    (* Inversion by sequential search. *)
    let l = exp (-.mean) in
    let rec go k p =
      let p = p *. unit_float t in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.0
  end
