module Q = Numeric.Rational

type result = { strategy : Strategy.t; expected_paging : float }

(* The one size rule of the guarded exact search. *)
let small ~c ~d = c <= 16 && float_of_int d ** float_of_int c <= 8e6

let guard_size ~c ~d =
  if c > 16 then invalid_arg "Optimal.exhaustive: c too large (max 16)"
  else if not (small ~c ~d) then
    invalid_arg "Optimal.exhaustive: d^c too large"

(* The prefix-chain engine (DESIGN §15). W_k(x), the most gain
   Σ |S_{r+1}|·F(L_r) still collectable from prefix x (per-class counts)
   in at most k rounds, is 0 at x = [c], else the max over y ⊋ x with
   |y| − |x| ≤ b of (|y| − |x|)·F(x) + W_{k−1}(y); EP = c − W_d(∅). The
   finishing pass scores every chain within [tolerance] of the optimal
   gain, keeping the least score, then the smallest label vector. *)
type 'a num = {
  zero : 'a; of_int : int -> 'a; add : 'a -> 'a -> 'a; sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a; lt : 'a -> 'a -> bool }

(* Most memo slots (prefixes × rounds) one search allocates; a larger
   lattice is searched without a memo, in memory linear in the instance. *)
let memo_cap = 1 lsl 20

let search num ~col ~success ~m ~classes ~rounds ~max_group:b ~cancel
    ~tolerance ~score =
  let ntypes = Array.length classes in
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
  let memo = Array.make (states * (memo_rounds - 1)) None in
  (* The current prefix: per-class counts, the class of each cell in the
     order added, and the per-device masses after each cell (rows up to
     [valid] match the trail; later ones are rebuilt on demand). *)
  let cnt = Array.make ntypes 0 and trail = Array.make c 0 in
  let rows = Array.init (c + 1) (fun _ -> Array.make m num.zero) in
  let valid = ref 0 in
  let success_at size =
    for s = !valid to size - 1 do
      let src = rows.(s) and dst = rows.(s + 1) and t = trail.(s) in
      for i = 0 to m - 1 do
        dst.(i) <- num.add src.(i) (col i t)
      done
    done;
    valid := size;
    success rows.(size)
  in
  (* [children k size idx f] runs [f n |y| idx(y)] with y current for each
     successor y that can still finish in k − 1 rounds (n = |y| − size),
     enumerated as multisets of class increments. *)
  let children k size idx f =
    let left = c - size in
    let n_max = min b left and n_min = max 1 (left - ((k - 1) * b)) in
    let rec go t0 n idx =
      Cancel.check cancel;
      if n >= n_min then f n (size + n) idx;
      if n < n_max then
        for t = t0 to ntypes - 1 do
          if cnt.(t) < sizes.(t) then begin
            let pos = size + n in
            cnt.(t) <- cnt.(t) + 1;
            trail.(pos) <- t;
            if !valid > pos then valid := pos;
            go t (n + 1) (idx + stride.(t));
            cnt.(t) <- cnt.(t) - 1
          end
        done
    in
    go 0 0 idx
  in
  let step n f = num.mul (num.of_int n) f in
  (* the gain of a last round, which pages every remaining cell *)
  let last size = step (c - size) (success_at size) in
  let rec value k size idx =
    let slot = if k < memo_rounds then ((k - 1) * states) + idx else -1 in
    if size = c then num.zero
    else
      match if slot < 0 then None else memo.(slot) with
      | Some v -> v
      | None ->
        let best = ref None in
        if k = 1 then best := Some (last size)
        else begin
          let fx = success_at size in
          children k size idx (fun n size idx ->
              let v = num.add (step n fx) (value (k - 1) size idx) in
              if Option.fold ~none:true ~some:(fun w -> num.lt w v) !best then
                best := Some v)
        end;
        if slot >= 0 then memo.(slot) <- !best;
        Option.get !best
  in
  let floor = num.sub (value rounds 0 0) tolerance in
  (* mark.(k): the prefix size on entering round level k of the chain *)
  let mark = Array.make (rounds + 1) 0 and best = ref None in
  (* A chain of [used] rounds: trail positions before [rest] carry their
     round; every other cell is paged in the last round. *)
  let consider rest used gain =
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
    let sc = score s gain in
    match !best with
    | Some (_, w, _) when num.lt w sc -> ()
    | Some (_, w, l) when (not (num.lt sc w)) && compare label l >= 0 -> ()
    | _ -> best := Some (s, sc, label)
  in
  let rec near k size idx gain =
    mark.(k) <- size;
    if size = c then consider mark.(k + 1) (rounds - k) gain
    else if k = 1 then consider size rounds (num.add gain (last size))
    else begin
      let fx = success_at size in
      children k size idx (fun n size idx ->
          let gain = num.add gain (step n fx) in
          if not (num.lt (num.add gain (value (k - 1) size idx)) floor) then
            near (k - 1) size idx gain)
    end
  in
  near rounds 0 0 num.zero;
  match !best with
  | Some (s, sc, _) -> (s, sc)
  | None -> assert false (* the optimal chain itself is within tolerance *)

(* 8E, where E bounds any float evaluation of a chain's gain against the
   exact one (DESIGN §15); the finishing pass needs 5E. *)
let slack ~d (inst : Instance.t) =
  let c = float_of_int inst.c and m = float_of_int inst.m in
  let sum row = Array.fold_left ( +. ) 0.0 row in
  let r = Array.fold_left (fun a row -> Float.max a (sum row)) 1.0 inst.p in
  let r = r *. (1.0 +. (c *. epsilon_float)) in
  8.0 *. 1.01 *. (epsilon_float /. 2.0) *. c *. (((2.0 *. r) -. 1.0) ** m)
  *. ((m *. (c +. 1.0) *. r) +. (3.0 *. m) +. float_of_int d +. 7.0)

let exhaustive ?(objective = Objective.Find_all) ?max_group ?classes
    ?(cancel = Cancel.never) ?(guard = true) inst =
  let c = inst.Instance.c and p = inst.Instance.p in
  (* unguarded only under a deadline token, which bounds the cost *)
  if guard then guard_size ~c ~d:inst.Instance.d;
  let classes =
    Option.value classes ~default:(Array.init c (fun j -> [| j |])) in
  let rounds = min inst.Instance.d c in
  let b = min c (Option.value max_group ~default:c) in
  if c > rounds * b then invalid_arg "Optimal.exhaustive: no feasible strategy";
  let strategy, expected_paging =
    search
      { zero = 0.0; of_int = float_of_int; add = ( +. ); sub = ( -. );
        mul = ( *. ); lt = (fun (a : float) b -> a < b) }
      ~col:(fun i t -> p.(i).(classes.(t).(0)))
      ~success:(Objective.success objective) ~m:inst.Instance.m ~classes
      ~rounds ~max_group:b ~cancel ~tolerance:(slack ~d:rounds inst)
      ~score:(fun s _ -> Strategy.expected_paging_unchecked ~objective inst s)
  in
  { strategy; expected_paging }

let exhaustive_exact ?(objective = Objective.Find_all) ?(cancel = Cancel.never)
    inst =
  let c = inst.Instance.Exact.c and p = inst.Instance.Exact.p in
  guard_size ~c ~d:inst.Instance.Exact.d;
  (* exact gains: the pass walks exactly the optimal chains, EP c − gain *)
  search
    { zero = Q.zero; of_int = Q.of_int; add = Q.add; sub = Q.sub;
      mul = Q.mul; lt = (fun a b -> Q.compare a b < 0) }
    ~col:(fun i j -> p.(i).(j))
    ~success:(Objective.success_exact objective) ~m:inst.Instance.Exact.m
    ~classes:(Array.init c (fun j -> [| j |]))
    ~rounds:(min inst.Instance.Exact.d c)
    ~max_group:c ~cancel ~tolerance:Q.zero
    ~score:(fun _ gain -> Q.sub (Q.of_int c) gain)

let branch_and_bound_d2 ?(objective = Objective.Find_all)
    ?(cancel = Cancel.never) inst =
  if inst.Instance.d <> 2 then
    invalid_arg "Optimal.branch_and_bound_d2: requires d = 2"
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
    { strategy; expected_paging }
  end

let best ?objective ?cancel ?(unguarded = false) inst =
  let c = inst.Instance.c and d = inst.Instance.d in
  if small ~c ~d then Some (exhaustive ?objective ?cancel inst)
  else if d = 2 && (c <= 26 || unguarded) then
    Some (branch_and_bound_d2 ?objective ?cancel inst)
  else if unguarded then
    Some (exhaustive ?objective ?cancel ~guard:false inst)
  else None
