module Q = Numeric.Rational

type t = Find_all | Find_any | Find_at_least of int

let validate t ~m =
  match t with
  | Find_all | Find_any -> Ok ()
  | Find_at_least k ->
    if k >= 1 && k <= m then Ok ()
    else Error "Find_at_least k requires 1 <= k <= m"

(* P[#devices in prefix >= k] for independent indicators, by the standard
   Poisson-binomial DP over devices. *)
let tail_at_least k probs =
  let m = Array.length probs in
  if k <= 0 then 1.0
  else if k > m then 0.0
  else begin
    let dp = Array.make (m + 1) 0.0 in
    dp.(0) <- 1.0;
    Array.iteri
      (fun i p ->
        for j = i + 1 downto 1 do
          dp.(j) <- (dp.(j) *. (1.0 -. p)) +. (dp.(j - 1) *. p)
        done;
        dp.(0) <- dp.(0) *. (1.0 -. p))
      probs;
    (* The tail can mix magnitudes badly (many tiny dp cells below a few
       dominant ones); compensated summation keeps the result faithful
       to the exact-rational path. *)
    let s = ref Numeric.Kahan.zero in
    for j = k to m do
      s := Numeric.Kahan.step !s dp.(j)
    done;
    Numeric.Kahan.value !s
  end

let success t probs =
  match t with
  | Find_all -> Array.fold_left ( *. ) 1.0 probs
  | Find_any ->
    1.0 -. Array.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 probs
  | Find_at_least k -> tail_at_least k probs

(* Flat-path mirror of [success]: reads [n] prefix masses from [src]
   starting at [off], writes the success probability into [dst.(di)].
   Every fold below replays [success] op for op (same accumulation
   order, same compensated tail sum), so the stored value is
   bit-identical to the list-path result. Results travel through the
   destination slot rather than a return value because ocamlopt boxes
   floats crossing non-inlined function boundaries — this function is
   called from per-round inner loops that must not allocate.
   [dp] is scratch of length >= n + 1, used only by [Find_at_least]. *)
let success_into t ~src ~off ~n ~dp ~dst ~di =
  match t with
  | Find_all ->
    let s = ref 1.0 in
    for i = 0 to n - 1 do
      s := !s *. Float.Array.get src (off + i)
    done;
    Float.Array.set dst di !s
  | Find_any ->
    let s = ref 1.0 in
    for i = 0 to n - 1 do
      s := !s *. (1.0 -. Float.Array.get src (off + i))
    done;
    Float.Array.set dst di (1.0 -. !s)
  | Find_at_least k ->
    if k <= 0 then Float.Array.set dst di 1.0
    else if k > n then Float.Array.set dst di 0.0
    else begin
      for j = 1 to n do
        Float.Array.set dp j 0.0
      done;
      Float.Array.set dp 0 1.0;
      for i = 0 to n - 1 do
        let p = Float.Array.get src (off + i) in
        for j = i + 1 downto 1 do
          Float.Array.set dp j
            ((Float.Array.get dp j *. (1.0 -. p))
            +. (Float.Array.get dp (j - 1) *. p))
        done;
        Float.Array.set dp 0 (Float.Array.get dp 0 *. (1.0 -. p))
      done;
      (* Neumaier tail sum, mirroring [tail_at_least]. *)
      let sum = ref 0.0 and comp = ref 0.0 in
      for j = k to n do
        let x = Float.Array.get dp j in
        let s = !sum +. x in
        if abs_float !sum >= abs_float x then
          comp := !comp +. (!sum -. s +. x)
        else comp := !comp +. (x -. s +. !sum);
        sum := s
      done;
      Float.Array.set dst di (!sum +. !comp)
    end

let tail_at_least_exact k probs =
  let m = Array.length probs in
  if k <= 0 then Q.one
  else if k > m then Q.zero
  else begin
    let dp = Array.make (m + 1) Q.zero in
    dp.(0) <- Q.one;
    Array.iteri
      (fun i p ->
        let not_p = Q.sub Q.one p in
        for j = i + 1 downto 1 do
          dp.(j) <- Q.add (Q.mul dp.(j) not_p) (Q.mul dp.(j - 1) p)
        done;
        dp.(0) <- Q.mul dp.(0) not_p)
      probs;
    let s = ref Q.zero in
    for j = k to m do
      s := Q.add !s dp.(j)
    done;
    !s
  end

let success_exact t probs =
  match t with
  | Find_all -> Array.fold_left Q.mul Q.one probs
  | Find_any ->
    Q.sub Q.one
      (Array.fold_left (fun acc p -> Q.mul acc (Q.sub Q.one p)) Q.one probs)
  | Find_at_least k -> tail_at_least_exact k probs

let found_enough t ~m ~found =
  match t with
  | Find_all -> found >= m
  | Find_any -> found >= 1
  | Find_at_least k -> found >= k

let to_string = function
  | Find_all -> "find-all"
  | Find_any -> "find-any"
  | Find_at_least k -> Printf.sprintf "find-%d" k

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "all" | "find-all" -> Ok Find_all
  | "any" | "find-any" -> Ok Find_any
  | other ->
    let k =
      if String.starts_with ~prefix:"find-" other then
        String.sub other 5 (String.length other - 5)
      else other
    in
    (match int_of_string_opt k with
     | Some k when k >= 1 -> Ok (Find_at_least k)
     | _ -> Error "objective must be all|any|<k>")
