let objective = Objective.Find_any

let natural_heuristic inst = Greedy.solve ~objective inst

let best_single_device inst =
  let m = inst.Instance.m in
  let candidate i =
    (* Order cells by this device's own distribution, cut with the
       find-any DP on the full instance. *)
    let row = inst.Instance.p.(i) in
    let order = Array.init inst.Instance.c (fun j -> j) in
    let cmp a b =
      if row.(a) <> row.(b) then compare row.(b) row.(a) else compare a b
    in
    Array.sort cmp order;
    Flat.order_dp ~objective (Flat.domain_arena ()) inst ~order
  in
  let rec pick i best =
    if i >= m then best
    else begin
      let r = candidate i in
      let best =
        if r.Strategy.expected_paging < best.Strategy.expected_paging then r
        else best
      in
      pick (i + 1) best
    end
  in
  pick 1 (candidate 0)

let solve inst =
  let a = natural_heuristic inst and b = best_single_device inst in
  if a.Strategy.expected_paging <= b.Strategy.expected_paging then a else b

let exhaustive inst = Optimal.exhaustive ~objective inst

let adversarial_instance ~blocks ~d =
  if blocks < 1 then invalid_arg "Yellow_pages.adversarial_instance"
  else begin
    (* k "solo" cells hold device 0 almost surely; blocks·k "shared"
       cells split the remaining devices' mass so that each shared cell
       is slightly heavier than each solo cell, yet covering shared cells
       buys find-any success only at rate 1 − e^{-t}. Covering the k solo
       cells buys success ≈ 1 at a third of the heuristic's cost. *)
    let k = 3 in
    let g = blocks in
    let n = g * k in
    let c = k + n in
    (* Device 0 dumps noticeable mass on the shared cells (inflating
       their weight) while the shared devices leave only a sliver on the
       solo cells, so the weight order pages every shared cell first. *)
    let eps_shared_of_solo = 1e-9 in
    let eps_solo_of_shared = 1e-4 in
    (* Cells 0..n-1 are shared; cells n..c-1 are solo. *)
    let device0 =
      Array.init c (fun j ->
          if j < n then eps_solo_of_shared
          else (1.0 -. (float_of_int n *. eps_solo_of_shared)) /. float_of_int k)
    in
    let shared_device _ =
      Array.init c (fun j ->
          if j < n then
            (1.0 -. (float_of_int k *. eps_shared_of_solo)) /. float_of_int n
          else eps_shared_of_solo)
    in
    let rows = Array.init (g + 1) (fun i -> if i = 0 then device0 else shared_device i) in
    Instance.create ~d rows
  end
