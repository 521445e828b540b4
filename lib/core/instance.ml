type t = { m : int; c : int; d : int; p : float array array }

let row_sum row = Array.fold_left ( +. ) 0.0 row

(* First offending entry of a row, with its kind — so the error can name
   device and cell instead of a generic "bad probability". *)
let bad_entry row =
  let n = Array.length row in
  let rec go j =
    if j >= n then None
    else
      let x = row.(j) in
      if Float.is_nan x then Some (j, "NaN")
      else if x = Float.infinity then Some (j, "+infinity")
      else if x = Float.neg_infinity then Some (j, "-infinity")
      else if x < 0.0 then Some (j, Printf.sprintf "negative value %g" x)
      else go (j + 1)
  in
  go 0

let validate ?(row_sum_tol = 1e-6) ~d p =
  let m = Array.length p in
  if Float.is_nan row_sum_tol || row_sum_tol < 0.0 then
    Error (Printf.sprintf "row_sum_tol must be >= 0, got %g" row_sum_tol)
  else if m = 0 then Error "no devices"
  else begin
    let c = Array.length p.(0) in
    if c = 0 then Error "no cells"
    else if d < 1 || d > c then Error "delay d must satisfy 1 <= d <= c"
    else begin
      let rec check i =
        if i >= m then Ok ()
        else if Array.length p.(i) <> c then
          Error
            (Printf.sprintf "device %d: row has %d cells, expected %d" i
               (Array.length p.(i)) c)
        else
          match bad_entry p.(i) with
          | Some (j, kind) ->
            Error
              (Printf.sprintf "device %d, cell %d: probability is %s" i j kind)
          | None ->
            let s = row_sum p.(i) in
            (* A row of finite entries can still overflow: the sum must be
               checked for finiteness on its own (NaN also fails the
               tolerance test silently — NaN comparisons are all false). *)
            if not (Float.is_finite s) then
              Error
                (Printf.sprintf "device %d: row sum is not finite (%s)" i
                   (if Float.is_nan s then "NaN" else "infinite"))
            else if s <= 0.0 then
              Error (Printf.sprintf "device %d: row has no mass" i)
            else if abs_float (s -. 1.0) > row_sum_tol then
              Error
                (Printf.sprintf
                   "device %d: row sums to %.9g, not 1 (residual %.3g, tolerance %.3g)"
                   i s (s -. 1.0) row_sum_tol)
            else check (i + 1)
      in
      check 0
    end
  end

let create ?row_sum_tol ~d p =
  match validate ?row_sum_tol ~d p with
  | Error reason -> invalid_arg ("Instance.create: " ^ reason)
  | Ok () ->
    let m = Array.length p in
    let c = Array.length p.(0) in
    (* Rows are kept verbatim (copied): renormalizing here would disturb
       exact ties between cell weights, which the §4.3 lower-bound
       instance relies on. *)
    let p = Array.map Array.copy p in
    { m; c; d; p }

let with_d t d =
  if d < 1 || d > t.c then invalid_arg "Instance.with_d: d out of range"
  else { t with d }

let cell_weight t j =
  let s = ref 0.0 in
  for i = 0 to t.m - 1 do
    s := !s +. t.p.(i).(j)
  done;
  !s

let weight_order_of ~c weight =
  let order = Array.init c (fun j -> j) in
  let cmp a b =
    let wa = weight a and wb = weight b in
    if wa <> wb then compare wb wa else compare a b
  in
  Array.sort cmp order;
  order

let weight_order t = weight_order_of ~c:t.c (cell_weight t)

let restrict t ~d ~cells ~devices =
  if Array.length cells = 0 || Array.length devices = 0 then
    invalid_arg "Instance.restrict: empty restriction"
  else begin
    let rows =
      Array.map
        (fun i ->
          let row = Array.map (fun j -> t.p.(i).(j)) cells in
          let s = row_sum row in
          if s <= 0.0 then
            invalid_arg "Instance.restrict: device has no mass on kept cells"
          else Array.map (fun x -> x /. s) row)
        devices
    in
    create ~d rows
  end

let block_diagonal ~d parts =
  if parts = [] then invalid_arg "Instance.block_diagonal: no parts"
  else begin
    let widths =
      List.map
        (fun rows ->
          if Array.length rows = 0 then
            invalid_arg "Instance.block_diagonal: empty part"
          else Array.length rows.(0))
        parts
    in
    let total_c = List.fold_left ( + ) 0 widths in
    let rows = ref [] in
    let offset = ref 0 in
    List.iter2
      (fun part width ->
        Array.iter
          (fun row ->
            if Array.length row <> width then
              invalid_arg "Instance.block_diagonal: ragged part"
            else begin
              let full = Array.make total_c 0.0 in
              Array.blit row 0 full !offset width;
              rows := full :: !rows
            end)
          part;
        offset := !offset + width)
      parts widths;
    create ~d (Array.of_list (List.rev !rows))
  end

let random rng ~m ~c ~d ~gen =
  let p = Array.init m (fun _ -> gen rng c) in
  create ~d p

let random_uniform_simplex rng ~m ~c ~d =
  random rng ~m ~c ~d ~gen:(fun rng c -> Prob.Dist.uniform_simplex rng c)

let random_zipf rng ~s ~m ~c ~d =
  let gen rng c = Prob.Dist.shuffled rng (Prob.Dist.zipf ~s c) in
  random rng ~m ~c ~d ~gen

let all_uniform ~m ~c ~d =
  create ~d (Array.init m (fun _ -> Prob.Dist.uniform c))

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %d %d\n" t.m t.c t.d);
  Array.iter
    (fun row ->
      Array.iteri
        (fun j x ->
          if j > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Printf.sprintf "%.17g" x))
        row;
      Buffer.add_char buf '\n')
    t.p;
  Buffer.contents buf

let of_string s =
  let tokens =
    String.split_on_char '\n' s
    |> List.filter (fun line ->
           let line = String.trim line in
           line <> "" && line.[0] <> '#')
    |> List.concat_map (fun line ->
           String.split_on_char ' ' line
           |> List.filter (fun tok -> String.trim tok <> ""))
  in
  match tokens with
  | m :: c :: d :: rest ->
    let parse_int name s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> invalid_arg ("Instance.of_string: bad " ^ name)
    in
    let m = parse_int "m" m and c = parse_int "c" c and d = parse_int "d" d in
    (* Name the degenerate axis: a zero-device (or zero-cell) header
       must be rejected here, at the parse boundary — downstream solver
       preconditions (the flat hot path included) assume m >= 1 and
       c >= 1 and would fail far from the cause. *)
    if m <= 0 then
      invalid_arg
        (Printf.sprintf "Instance.of_string: no devices (m = %d, need m >= 1)"
           m)
    else if c <= 0 then
      invalid_arg
        (Printf.sprintf "Instance.of_string: no cells (c = %d, need c >= 1)" c)
    else begin
      let values = Array.of_list rest in
      if Array.length values <> m * c then
        invalid_arg "Instance.of_string: wrong number of probabilities"
      else begin
        let p =
          Array.init m (fun i ->
              Array.init c (fun j ->
                  match float_of_string_opt values.((i * c) + j) with
                  | Some v -> v
                  | None -> invalid_arg "Instance.of_string: bad probability"))
        in
        create ~d p
      end
    end
  | _ -> invalid_arg "Instance.of_string: missing header"

module Exact = struct
  module Q = Numeric.Rational

  let float_create = create

  type t = { m : int; c : int; d : int; p : Q.t array array }

  let create ~d p =
    let m = Array.length p in
    if m = 0 then invalid_arg "Instance.Exact.create: no devices"
    else begin
      let c = Array.length p.(0) in
      if c = 0 then invalid_arg "Instance.Exact.create: no cells"
      else if d < 1 || d > c then invalid_arg "Instance.Exact.create: bad d"
      else begin
        Array.iter
          (fun row ->
            if Array.length row <> c then
              invalid_arg "Instance.Exact.create: ragged matrix"
            else if Array.exists (fun x -> Q.sign x < 0) row then
              invalid_arg "Instance.Exact.create: negative probability"
            else if not (Q.equal (Q.sum (Array.to_list row)) Q.one) then
              invalid_arg "Instance.Exact.create: row does not sum to 1")
          p;
        { m; c; d; p }
      end
    end

  let to_float t = float_create ~d:t.d (Array.map (Array.map Q.to_float) t.p)

  let cell_weight t j =
    let s = ref Q.zero in
    for i = 0 to t.m - 1 do
      s := Q.add !s t.p.(i).(j)
    done;
    !s

  let weight_order t =
    let order = Array.init t.c (fun j -> j) in
    let cmp a b =
      let qa = cell_weight t a and qb = cell_weight t b in
      let c = Q.compare qb qa in
      if c <> 0 then c else compare a b
    in
    Array.sort cmp order;
    order
end
