module Q = Numeric.Rational

type t = { groups : int array array }
type solution = { strategy : t; expected_paging : float; exact : bool }

let create groups =
  if Array.length groups = 0 then invalid_arg "Strategy.create: no groups"
  else begin
    let seen = Hashtbl.create 16 in
    let groups =
      Array.map
        (fun g ->
          if Array.length g = 0 then
            invalid_arg "Strategy.create: empty group"
          else begin
            Array.iter
              (fun j ->
                if j < 0 then invalid_arg "Strategy.create: negative cell"
                else if Hashtbl.mem seen j then
                  invalid_arg "Strategy.create: duplicate cell"
                else Hashtbl.add seen j ())
              g;
            let g = Array.copy g in
            Array.sort compare g;
            g
          end)
        groups
    in
    { groups }
  end

let validate ~c t =
  let count = Array.fold_left (fun acc g -> acc + Array.length g) 0 t.groups in
  if count <> c then Error "strategy does not cover exactly c cells"
  else begin
    let covered = Array.make c false in
    let bad = ref None in
    Array.iter
      (Array.iter (fun j ->
           if j >= c then bad := Some "cell index out of range"
           else covered.(j) <- true))
      t.groups;
    match !bad with
    | Some reason -> Error reason
    | None ->
      if Array.for_all (fun b -> b) covered then Ok ()
      else Error "strategy misses some cell"
  end

let of_sizes ~order ~sizes =
  let c = Array.length order in
  let total = Array.fold_left ( + ) 0 sizes in
  if total <> c then invalid_arg "Strategy.of_sizes: sizes do not sum to c"
  else if Array.exists (fun s -> s <= 0) sizes then
    invalid_arg "Strategy.of_sizes: non-positive group size"
  else begin
    let pos = ref 0 in
    let groups =
      Array.map
        (fun s ->
          let g = Array.sub order !pos s in
          pos := !pos + s;
          g)
        sizes
    in
    create groups
  end

let page_all c =
  if c <= 0 then invalid_arg "Strategy.page_all: non-positive c"
  else create [| Array.init c (fun j -> j) |]

let singletons order = create (Array.map (fun j -> [| j |]) order)
let length t = Array.length t.groups
let groups t = Array.map Array.copy t.groups
let sizes t = Array.map Array.length t.groups

let check inst t =
  match validate ~c:inst.Instance.c t with
  | Error reason -> invalid_arg ("Strategy: " ^ reason)
  | Ok () ->
    if Array.length t.groups > inst.Instance.d then
      invalid_arg "Strategy: more rounds than the delay constraint allows"

let prefix_masses inst t =
  let m = inst.Instance.m in
  let rounds = Array.length t.groups in
  (* Neumaier-compensated per-device accumulation: the Lemma 2.1 masses
     are running sums over up to c cells. *)
  let acc = Array.make m 0.0 in
  let comp = Array.make m 0.0 in
  Array.init rounds (fun r ->
      Array.iter
        (fun j ->
          for i = 0 to m - 1 do
            let sum, cmp =
              Numeric.Kahan.step (acc.(i), comp.(i)) inst.Instance.p.(i).(j)
            in
            acc.(i) <- sum;
            comp.(i) <- cmp
          done)
        t.groups.(r);
      Array.init m (fun i -> Numeric.Kahan.value (acc.(i), comp.(i))))

let success_by_round ?(objective = Objective.Find_all) inst t =
  Array.map (Objective.success objective) (prefix_masses inst t)

let expected_paging_unchecked ?(objective = Objective.Find_all) inst t =
  let f = success_by_round ~objective inst t in
  let rounds = Array.length t.groups in
  (* Lemma 2.1: EP = c − Σ_r |S_{r+1}|·F_r, compensated — the subtracted
     terms can span many orders of magnitude when some F_r ≈ 0. *)
  let ep = ref (Numeric.Kahan.step Numeric.Kahan.zero (float_of_int inst.Instance.c)) in
  for r = 0 to rounds - 2 do
    ep :=
      Numeric.Kahan.step !ep
        (-.(float_of_int (Array.length t.groups.(r + 1)) *. f.(r)))
  done;
  Numeric.Kahan.value !ep

let expected_paging ?objective inst t =
  check inst t;
  expected_paging_unchecked ?objective inst t

let expected_rounds ?(objective = Objective.Find_all) inst t =
  check inst t;
  let f = success_by_round ~objective inst t in
  let rounds = Array.length t.groups in
  (* E[rounds] = Σ_{r=0}^{rounds-1} P[search lasts > r rounds]. *)
  let e = ref 1.0 in
  for r = 0 to rounds - 2 do
    e := !e +. (1.0 -. f.(r))
  done;
  !e

let cost_on_outcome ?(objective = Objective.Find_all) t ~m ~positions =
  let rounds = Array.length t.groups in
  let find_round =
    let tbl = Hashtbl.create 64 in
    Array.iteri
      (fun r g -> Array.iter (fun j -> Hashtbl.replace tbl j r) g)
      t.groups;
    fun j ->
      match Hashtbl.find_opt tbl j with
      | Some r -> r
      | None -> invalid_arg "Strategy.cost_on_outcome: position not covered"
  in
  let device_rounds = Array.map find_round positions in
  (* The search stops at the first round r such that at least the required
     number of devices lie within rounds 0..r. *)
  let rec stop_round r found =
    let found =
      found
      + Array.fold_left
          (fun acc dr -> if dr = r then acc + 1 else acc)
          0 device_rounds
    in
    if Objective.found_enough objective ~m ~found then r
    else if r + 1 >= rounds then rounds - 1
    else stop_round (r + 1) found
  in
  let stop = stop_round 0 0 in
  let cost = ref 0 in
  for r = 0 to stop do
    cost := !cost + Array.length t.groups.(r)
  done;
  !cost

let monte_carlo_ep ?(objective = Objective.Find_all) inst t rng ~trials =
  check inst t;
  let m = inst.Instance.m in
  let tables =
    Array.init m (fun i -> Prob.Sampling.create inst.Instance.p.(i))
  in
  let acc = Prob.Stats.Acc.create () in
  let positions = Array.make m 0 in
  for _ = 1 to trials do
    for i = 0 to m - 1 do
      positions.(i) <- Prob.Sampling.draw tables.(i) rng
    done;
    let cost = cost_on_outcome ~objective t ~m ~positions in
    Prob.Stats.Acc.add acc (float_of_int cost)
  done;
  Prob.Stats.Acc.summary acc

let expected_paging_exact ?(objective = Objective.Find_all) inst t =
  let m = inst.Instance.Exact.m in
  let c = inst.Instance.Exact.c in
  let rounds = Array.length t.groups in
  let acc = Array.make m Q.zero in
  let ep = ref (Q.of_int c) in
  for r = 0 to rounds - 1 do
    Array.iter
      (fun j ->
        for i = 0 to m - 1 do
          acc.(i) <- Q.add acc.(i) inst.Instance.Exact.p.(i).(j)
        done)
      t.groups.(r);
    if r <= rounds - 2 then begin
      let f = Objective.success_exact objective (Array.copy acc) in
      let size = Q.of_int (Array.length t.groups.(r + 1)) in
      ep := Q.sub !ep (Q.mul size f)
    end
  done;
  !ep

let equal a b =
  Array.length a.groups = Array.length b.groups
  && Array.for_all2 (fun x y -> x = y) a.groups b.groups

let to_string t =
  let group g =
    "{"
    ^ String.concat " " (Array.to_list (Array.map string_of_int g))
    ^ "}"
  in
  String.concat "|" (Array.to_list (Array.map group t.groups))

let of_string s =
  let cell tok =
    match Wire.Spec.int tok with
    | Some j -> j
    | None ->
      invalid_arg
        (Printf.sprintf
           "bad cell index %S (expected space-separated integers in \
            '|'-separated groups, e.g. \"0 1 2|3 4|5\")"
           tok)
  in
  let group g =
    let n = String.length g in
    let g =
      if n >= 2 && g.[0] = '{' && g.[n - 1] = '}' then String.sub g 1 (n - 2)
      else g
    in
    String.split_on_char ' ' g
    |> List.filter (( <> ) "")
    |> List.map cell |> Array.of_list
  in
  match create (Array.of_list (List.map group (Wire.Spec.parts '|' s))) with
  | t -> Ok t
  | exception Invalid_argument e -> Error e
