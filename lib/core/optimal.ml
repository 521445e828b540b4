module Q = Numeric.Rational

(* The size rules of the guarded exact searches, engine and d = 2 B&B. *)
let small ~c ~d = c <= 16 && float_of_int d ** float_of_int c <= 8e6
let bnb_max_c = 26

let guard_size ~c ~d =
  if c > 16 then invalid_arg "Optimal.exhaustive: c too large (max 16)"
  else if not (small ~c ~d) then
    invalid_arg "Optimal.exhaustive: d^c too large"

(* Most memo slots (prefixes × rounds) one search allocates; a larger
   lattice is searched without a memo, in memory linear in the instance. *)
let memo_cap = 1 lsl 20

(* The prefix-chain engine (DESIGN §15), in floats. W_k(x), the most gain
   Σ |S_{r+1}|·F(L_r) still collectable from prefix x (per-class counts)
   in at most k rounds, is 0 at x = [c], else the max over y ⊋ x with
   |y| − |x| ≤ b of (|y| − |x|)·F(x) + W_{k−1}(y); EP = c − W_d(∅). The
   finishing pass scores every chain within [tolerance] of the optimal
   gain, keeping the least [score] under [lt], then the smallest label
   vector. Values pass between round levels through float arrays indexed
   by the level, so no float is boxed. *)
let search (inst : Instance.t) ~objective ~classes ~rounds ~max_group:b
    ~cancel ~tolerance ~score ~lt =
  let m = inst.m and p = inst.p and ntypes = Array.length classes in
  let sizes = Array.map Array.length classes in
  let c = Array.fold_left ( + ) 0 sizes in
  (* mixed-radix memo index of a prefix; [states] saturates past the cap *)
  let stride = Array.make ntypes 0 and states = ref 1 in
  Array.iteri
    (fun t n ->
      stride.(t) <- !states;
      if !states <= memo_cap then states := !states * (n + 1))
    sizes;
  let states = !states in
  (* with two rounds only the finishing pass revisits a prefix: no memo *)
  let memo_rounds =
    if rounds >= 3 && states <= memo_cap / (rounds - 1) then rounds else 1 in
  let memo = Array.make (states * (memo_rounds - 1)) Float.nan (* unset *) in
  (* The current prefix: per-class counts, the class of each cell in the
     order added, and the per-device masses after each cell (rows up to
     [valid] match the trail; later ones are rebuilt on demand). *)
  let cnt = Array.make ntypes 0 and trail = Array.make c 0 in
  let rows = Array.init (c + 1) (fun _ -> Float.Array.make m 0.0) in
  let valid = ref 0 and dp = Float.Array.make (m + 1) 0.0 in
  (* per round level k: F at the level's prefix, W_k (the best so far
     while its successors are walked) and the pass's gain on entry *)
  let fx = Float.Array.make (rounds + 1) 0.0 and floor = ref 0.0 in
  let w = Array.make (rounds + 1) 0.0 and gains = Array.make (rounds + 1) 0.0 in
  let success_at size k =
    for s = !valid to size - 1 do
      let src = rows.(s) and dst = rows.(s + 1) in
      let j = classes.(trail.(s)).(0) in
      for i = 0 to m - 1 do
        Float.Array.set dst i (Float.Array.get src i +. p.(i).(j))
      done
    done;
    valid := size;
    Objective.success_into objective ~src:rows.(size) ~off:0 ~n:m ~dp ~dst:fx
      ~di:k
  in
  (* mark.(k): the prefix size on entering round level k of the chain *)
  let mark = Array.make (rounds + 1) 0 and best = ref None in
  (* A chain of [used] rounds: trail positions before [rest] carry their
     round; every other cell is paged in the last round. *)
  let consider rest used =
    let label = Array.make c (used - 1) and next = Array.make ntypes 0 in
    let r = ref 0 in
    for s = 0 to rest - 1 do
      while mark.(rounds - !r - 1) <= s do incr r done;
      let t = trail.(s) in
      label.(classes.(t).(next.(t))) <- !r;
      next.(t) <- next.(t) + 1
    done;
    let g = Array.make used [] in
    for j = c - 1 downto 0 do g.(label.(j)) <- j :: g.(label.(j)) done;
    let s = Strategy.create (Array.map Array.of_list g) in
    let sc = score s in
    match !best with
    | Some (_, v, _) when lt v sc -> ()
    | Some (_, v, l) when (not (lt sc v)) && compare label l >= 0 -> ()
    | _ -> best := Some (s, sc, label)
  in
  (* [value k size idx] sets w.(k) to W_k at the current prefix. *)
  let rec value k size idx =
    let slot = if k < memo_rounds then ((k - 1) * states) + idx else -1 in
    if size = c then w.(k) <- 0.0
    else if slot >= 0 && not (Float.is_nan memo.(slot)) then
      w.(k) <- memo.(slot)
    else begin
      success_at size k;
      (* a last round pages every remaining cell *)
      if k = 1 then w.(k) <- float_of_int (c - size) *. Float.Array.get fx k
      else begin
        w.(k) <- Float.neg_infinity;
        go false k size 0 0 idx
      end;
      if slot >= 0 then memo.(slot) <- w.(k)
    end
  (* Visits, with y current, each successor y that can still finish in
     k − 1 rounds (n = |y| − size), enumerated as multisets of class
     increments: for the finishing pass if [pass], else for [value]. *)
  and go pass k size t0 n idx =
    Cancel.check cancel;
    let left = c - size in
    if n >= Int.max 1 (left - ((k - 1) * b)) then begin
      value (k - 1) (size + n) idx;
      let step = float_of_int n *. Float.Array.get fx k and rest = w.(k - 1) in
      if not pass then (if w.(k) < step +. rest then w.(k) <- step +. rest)
      else if not (gains.(k) +. step +. rest < !floor) then begin
        gains.(k - 1) <- gains.(k) +. step;
        near (k - 1) (size + n) idx
      end
    end;
    if n < Int.min b left then
      for t = t0 to ntypes - 1 do
        if cnt.(t) < sizes.(t) then begin
          let pos = size + n in
          cnt.(t) <- cnt.(t) + 1;
          trail.(pos) <- t;
          if !valid > pos then valid := pos;
          go pass k size t (n + 1) (idx + stride.(t));
          cnt.(t) <- cnt.(t) - 1
        end
      done
  and near k size idx =
    mark.(k) <- size;
    if size = c then consider mark.(k + 1) (rounds - k)
    else if k = 1 then consider size rounds
    else (success_at size k; go true k size 0 0 idx)
  in
  value rounds 0 0;
  floor := w.(rounds) -. tolerance;
  near rounds 0 0;
  match !best with
  | Some (s, sc, _) -> (s, sc)
  | None -> assert false (* the optimal chain itself is within tolerance *)

(* The finishing pass's tolerance (DESIGN §15). E bounds how far a float
   evaluation of a chain's gain on [inst]'s rows lies from its exact gain
   on them; the pass needs 5E and gets 8E. Rows [rounded] from exact ones
   get 3E′ with E′ = E + E_in, E_in = c·K·m·(u + c·η) bounding how far
   that rounding (at most u·p + η, η = 2⁻¹⁰⁷⁴) moves a chain's gain. *)
let tolerance ?(rounded = false) ~d (inst : Instance.t) =
  let c = float_of_int inst.c and m = float_of_int inst.m in
  let u = epsilon_float /. 2.0 in
  let sum row = Array.fold_left ( +. ) 0.0 row in
  let r = Array.fold_left (fun a row -> Float.max a (sum row)) 1.0 inst.p in
  let r = r *. (1.0 +. (c *. epsilon_float)) in
  let k = ((2.0 *. r) -. 1.0) ** m in
  let e =
    1.01 *. u *. c *. k
    *. ((m *. (c +. 1.0) *. r) +. (3.0 *. m) +. float_of_int d +. 7.0)
  in
  if not rounded then 8.0 *. e
  else 3.0 *. (e +. (1.01 *. c *. k *. m *. (u +. (c *. ldexp 1.0 (-1074)))))

let exhaustive ?(objective = Objective.Find_all) ?max_group ?classes
    ?(cancel = Cancel.never) ?(guard = true) inst =
  let c = inst.Instance.c in
  (* unguarded only under a deadline token, which bounds the cost *)
  if guard then guard_size ~c ~d:inst.Instance.d;
  let classes =
    Option.value classes ~default:(Array.init c (fun j -> [| j |])) in
  let rounds = min inst.Instance.d c in
  let b = min c (Option.value max_group ~default:c) in
  if c > rounds * b then invalid_arg "Optimal.exhaustive: no feasible strategy";
  let strategy, expected_paging =
    search inst ~objective ~classes ~rounds ~max_group:b ~cancel
      ~tolerance:(tolerance ~d:rounds inst)
      ~score:(Strategy.expected_paging_unchecked ~objective inst)
      ~lt:(fun (a : float) b -> a < b)
  in
  { Strategy.strategy; expected_paging; exact = true }

let exhaustive_exact ?(objective = Objective.Find_all) ?(cancel = Cancel.never)
    inst =
  let c = inst.Instance.Exact.c and d = inst.Instance.Exact.d in
  guard_size ~c ~d;
  (* the float search on the correctly rounded rows, scored in rationals *)
  let rounded = Instance.Exact.to_float inst and rounds = min d c in
  search rounded ~objective ~classes:(Array.init c (fun j -> [| j |])) ~rounds
    ~max_group:c ~cancel ~tolerance:(tolerance ~rounded:true ~d:rounds rounded)
    ~score:(Strategy.expected_paging_exact ~objective inst)
    ~lt:(fun a b -> Q.compare a b < 0)

let branch_and_bound_d2 ?(objective = Objective.Find_all)
    ?(cancel = Cancel.never) ?(guard = true) inst =
  if inst.Instance.d <> 2 then
    invalid_arg "Optimal.branch_and_bound_d2: requires d = 2"
  else if guard && inst.Instance.c > bnb_max_c then
    invalid_arg "Optimal.branch_and_bound_d2: c too large (max 26)"
  else begin
    let c = inst.Instance.c and m = inst.Instance.m in
    let order = Instance.weight_order inst in
    (* Maximize gain(S1) = (c - |S1|) * success(P(S1)); EP = c - gain.
       The pruning bound relies only on success being monotone in the
       per-device masses, which holds for every objective. *)
    let rem_mass = Array.make_matrix m (c + 1) 0.0 in
    for i = 0 to m - 1 do
      for t = c - 1 downto 0 do
        rem_mass.(i).(t) <-
          rem_mass.(i).(t + 1) +. inst.Instance.p.(i).(order.(t))
      done
    done;
    let best_gain = ref neg_infinity in
    let best_set = ref [] in
    let masses = Array.make m 0.0 in
    let chosen = ref [] in
    let rec go t size =
      Cancel.check cancel;
      let gain_here =
        if size >= 1 && size <= c - 1 then
          float_of_int (c - size) *. Objective.success objective masses
        else neg_infinity
      in
      if gain_here > !best_gain then begin
        best_gain := gain_here;
        best_set := !chosen
      end;
      if t < c then begin
        (* Optimistic bound: smallest future size, largest future masses. *)
        let optimistic_size = Stdlib.max 1 size in
        if c - optimistic_size > 0 then begin
          let optimistic_masses =
            Array.mapi
              (fun i mass -> Stdlib.min 1.0 (mass +. rem_mass.(i).(t)))
              masses
          in
          let ub =
            ref
              (float_of_int (c - optimistic_size)
              *. Objective.success objective optimistic_masses)
          in
          if !ub > !best_gain then begin
            let cell = order.(t) in
            (* Include cell [t] in S1. *)
            for i = 0 to m - 1 do
              masses.(i) <- masses.(i) +. inst.Instance.p.(i).(cell)
            done;
            chosen := cell :: !chosen;
            go (t + 1) (size + 1);
            chosen := List.tl !chosen;
            for i = 0 to m - 1 do
              masses.(i) <- masses.(i) -. inst.Instance.p.(i).(cell)
            done;
            (* Exclude cell [t]. *)
            go (t + 1) size
          end
        end
      end
    in
    go 0 0;
    let s1 = Array.of_list !best_set in
    let s2 = List.filter (fun j -> not (Array.mem j s1)) (List.init c Fun.id) in
    let strategy = Strategy.create [| s1; Array.of_list s2 |] in
    let expected_paging = Strategy.expected_paging ~objective inst strategy in
    { Strategy.strategy; expected_paging; exact = true }
  end

let best ?objective ?cancel ?(guard = true) inst =
  let c = inst.Instance.c and d = inst.Instance.d in
  if small ~c ~d then Some (exhaustive ?objective ?cancel inst)
  else if d = 2 && ((not guard) || c <= bnb_max_c) then
    Some (branch_and_bound_d2 ?objective ?cancel ~guard inst)
  else if not guard then Some (exhaustive ?objective ?cancel ~guard:false inst)
  else None
