(* Test reference for Mobility: the dense n×n implementation that the
   sparse-row model replaced. Rows are plain float arrays, every kernel
   loops over all n columns (zeros included), and the aging kernel
   allocates two n×dwell_cap matrices per call and walks boxed jump
   lists. Sampling, power iteration and aging must match it bit for
   bit. Dwell laws and their hazards come from Mobility itself. *)

module M = Cellsim.Mobility

type t = { n : int; rows : float array array }

let create rows =
  let n = Array.length rows in
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg "Mobility_ref.create: width"
      else if Array.exists (fun x -> x < 0.0) row then
        invalid_arg (Printf.sprintf "Mobility_ref.create: row %d" i)
      else if abs_float (Array.fold_left ( +. ) 0.0 row -. 1.0) > 1e-9 then
        invalid_arg (Printf.sprintf "Mobility_ref.create: row %d sum" i))
    rows;
  { n; rows = Array.map Array.copy rows }

let random_walk hex ~stay =
  let n = Cellsim.Hex.cells hex in
  create
    (Array.init n (fun cell ->
         let row = Array.make n 0.0 in
         (match Cellsim.Hex.neighbors hex cell with
          | [] -> row.(cell) <- 1.0
          | ns ->
            let share = (1.0 -. stay) /. float_of_int (List.length ns) in
            row.(cell) <- stay;
            List.iter (fun j -> row.(j) <- row.(j) +. share) ns);
         row))

let drift_walk hex ~stay ~east_bias =
  let n = Cellsim.Hex.cells hex in
  create
    (Array.init n (fun cell ->
         let row = Array.make n 0.0 in
         let _, col = Cellsim.Hex.coords hex cell in
         (match Cellsim.Hex.neighbors hex cell with
          | [] -> row.(cell) <- 1.0
          | ns ->
            let weight j =
              let _, cj = Cellsim.Hex.coords hex j in
              if cj > col then east_bias else 1.0
            in
            let total = List.fold_left (fun acc j -> acc +. weight j) 0.0 ns in
            row.(cell) <- stay;
            List.iter
              (fun j ->
                row.(j) <- row.(j) +. ((1.0 -. stay) *. weight j /. total))
              ns);
         row))

let teleport base ~jump ~target =
  let target = Prob.Dist.normalize (Array.copy target) in
  create
    (Array.map
       (fun row ->
         Array.mapi (fun j x -> ((1.0 -. jump) *. x) +. (jump *. target.(j))) row)
       base.rows)

let step t rng ~cell = Prob.Dist.sample rng t.rows.(cell)

let push t v =
  let next = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let vi = v.(i) in
    if vi > 0.0 then
      for j = 0 to t.n - 1 do
        next.(j) <- next.(j) +. (vi *. t.rows.(i).(j))
      done
  done;
  next

let stationary t =
  let v = ref (Array.make t.n (1.0 /. float_of_int t.n)) in
  let continue = ref true in
  let k = ref 0 in
  while !continue && !k < 10_000 do
    let next = push t !v in
    if Prob.Dist.total_variation !v next < 1e-12 then continue := false;
    v := next;
    incr k
  done;
  !v

let diffuse t dist ~steps =
  let v = ref (Array.copy dist) in
  for _ = 1 to steps do
    v := push t !v
  done;
  !v

type aging = {
  base : t;
  dwell_cap : int;
  haz : float array array;
  jump : (int * float) array array;
}

let aging ?(dwell_cap = 32) base laws =
  let haz =
    Array.map
      (fun law -> Array.init dwell_cap (fun a -> M.residence_hazard law a))
      laws
  in
  let jump =
    Array.init base.n (fun c ->
        let row = base.rows.(c) in
        let out = 1.0 -. row.(c) in
        if out <= 0.0 then [||]
        else begin
          let targets = ref [] in
          for j = base.n - 1 downto 0 do
            if j <> c && row.(j) > 0.0 then
              targets := (j, row.(j) /. out) :: !targets
          done;
          Array.of_list !targets
        end)
  in
  { base; dwell_cap; haz; jump }

let aging_uniform ?dwell_cap base law =
  aging ?dwell_cap base (Array.make base.n law)

let semi_step a rng ~cell ~dwell =
  let h = a.haz.(cell).(Stdlib.min dwell (a.dwell_cap - 1)) in
  let u = Prob.Rng.unit_float rng in
  let v = Prob.Rng.unit_float rng in
  if Array.length a.jump.(cell) = 0 || u >= h then
    (cell, Stdlib.min (dwell + 1) (a.dwell_cap - 1))
  else begin
    let targets = a.jump.(cell) in
    let n = Array.length targets in
    let rec go i acc =
      if i >= n - 1 then fst targets.(n - 1)
      else begin
        let j, p = targets.(i) in
        let acc = acc +. p in
        if v < acc then j else go (i + 1) acc
      end
    in
    (go 0 0.0, 0)
  end

let age_dist a dist ~steps =
  if steps = 0 then Array.copy dist
  else begin
    let n = a.base.n and cap = a.dwell_cap in
    let cur = ref (Array.make_matrix n cap 0.0) in
    let nxt = ref (Array.make_matrix n cap 0.0) in
    Array.iteri (fun c mass -> !cur.(c).(0) <- mass) dist;
    for _ = 1 to steps do
      let cur_m = !cur and nxt_m = !nxt in
      Array.iter (fun row -> Array.fill row 0 cap 0.0) nxt_m;
      for c = 0 to n - 1 do
        let targets = a.jump.(c) in
        let absorbing = Array.length targets = 0 in
        for k = 0 to cap - 1 do
          let mass = cur_m.(c).(k) in
          if mass > 0.0 then begin
            let k' = Stdlib.min (k + 1) (cap - 1) in
            if absorbing then nxt_m.(c).(k') <- nxt_m.(c).(k') +. mass
            else begin
              let leave = mass *. a.haz.(c).(k) in
              nxt_m.(c).(k') <- nxt_m.(c).(k') +. (mass -. leave);
              if leave > 0.0 then
                Array.iter
                  (fun (j, p) -> nxt_m.(j).(0) <- nxt_m.(j).(0) +. (leave *. p))
                  targets
            end
          end
        done
      done;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp
    done;
    Array.map (fun row -> Array.fold_left ( +. ) 0.0 row) !cur
  end
