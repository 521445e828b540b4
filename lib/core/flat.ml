(* Allocation-free solver hot path on flat unboxed float arrays.

   One arena holds every scratch buffer the order-DP (Fig. 1 / Lemma
   4.7), the coarse metro-scale DP and the local search need, pre-sized
   at [prepare] time and reused across solves. After a [prepare_*] call
   the [run_*] entry points allocate zero minor-heap words: all float
   state lives in [floatarray]s, all float math is hand-inlined (ocamlopt
   boxes floats crossing non-inlined function boundaries), and scalar
   results travel through the [out] slots instead of return values.

   This is the only production implementation of the heuristics:
   [Solver], [Runner], [Greedy.solve] and [Bandwidth.solve] all run
   here. Every computation is an op-for-op mirror of the list reference
   code ([Order_dp], [Strategy], [Local_search]): the same Neumaier
   compensation sequence for prefix masses, the same fold order inside
   [Objective.success_into], the same DP scan and tie-breaks, and — for
   the hill climb — the same apply/evaluate/revert move protocol whose
   floating-point drift feeds later evaluations. Results are therefore
   bit-identical to the list code, which the tests keep as the
   reference (test_flat pins this across instances, solver specs and
   domains). *)

module FA = Float.Array

type t = {
  (* ---- binding ---- *)
  mutable bound_inst : Instance.t option;
  mutable pmat : float array array;  (* = inst.p, cached to skip the option *)
  mutable objective : Objective.t;
  mutable m : int;
  mutable c : int;
  mutable d : int;
  (* ---- prepared order ---- *)
  mutable order : int array;  (* exact length c *)
  mutable order_is_weight : bool;
  mutable weights : FA.t;  (* cell weights, valid iff weights_ok *)
  mutable weights_ok : bool;
  (* ---- full-resolution prefix success table ---- *)
  mutable table : FA.t;  (* length c+1, valid iff table_ok *)
  mutable cum : FA.t;  (* length c+1: cumulative unit cost *)
  mutable table_ok : bool;
  (* ---- coarse (metro) boundary table ---- *)
  mutable coarse_block : int;
  mutable nblocks : int;
  mutable ftab_c : FA.t;  (* nblocks+1 boundary success values *)
  mutable cum_c : FA.t;  (* nblocks+1 cumulative cell cost *)
  mutable coarse_ok : bool;
  (* ---- per-device scratch ---- *)
  mutable acc : FA.t;  (* m: Neumaier running sums *)
  mutable comp : FA.t;  (* m: Neumaier compensations *)
  mutable masses : FA.t;  (* m: materialized prefix masses *)
  mutable dp : FA.t;  (* m+1: Poisson-binomial scratch *)
  (* ---- DP matrices, flattened rows of width c+1 (or nblocks+1) ---- *)
  mutable e : FA.t;
  mutable x : int array;
  (* ---- results ---- *)
  mutable sizes : int array;  (* capacity d; first [nsizes] entries valid *)
  mutable nsizes : int;
  mutable iters : int;
  (* Climb-loop flag: a [ref] would heap-allocate (it stays live across
     the Out_of_budget handler, which defeats ref unboxing). *)
  mutable improved : bool;
  out : FA.t;
  (* slots: 0 = result/current EP; 1 = success scratch; 2 = full-eval EP;
     3 = best gain of the climb's scan round *)
  (* ---- local-search state ---- *)
  mutable ls_rounds : int;
  mutable ls_round_of : int array;  (* capacity c *)
  mutable ls_counts : int array;  (* capacity d *)
  mutable ls_masses : FA.t;  (* m x rounds, device-major [i*rounds + r] *)
  mutable ls_scratch : FA.t;  (* m *)
  mutable ls_cells : int array;  (* capacity c: seeding scratch *)
}

exception Out_of_budget

let create () =
  {
    bound_inst = None;
    pmat = [||];
    objective = Objective.Find_all;
    m = 0;
    c = 0;
    d = 0;
    order = [||];
    order_is_weight = false;
    weights = FA.create 0;
    weights_ok = false;
    table = FA.create 0;
    cum = FA.create 0;
    table_ok = false;
    coarse_block = 0;
    nblocks = 0;
    ftab_c = FA.create 0;
    cum_c = FA.create 0;
    coarse_ok = false;
    acc = FA.create 0;
    comp = FA.create 0;
    masses = FA.create 0;
    dp = FA.create 0;
    e = FA.create 0;
    x = [||];
    sizes = [||];
    nsizes = 0;
    iters = 0;
    improved = false;
    out = FA.make 4 0.0;
    ls_rounds = 0;
    ls_round_of = [||];
    ls_counts = [||];
    ls_masses = FA.create 0;
    ls_scratch = FA.create 0;
    ls_cells = [||];
  }

let dls_key = Domain.DLS.new_key (fun () -> create ())
let domain_arena () = Domain.DLS.get dls_key

let fa_cap fa n = if FA.length fa >= n then fa else FA.create n
let ia_cap a n = if Array.length a >= n then a else Array.make n 0

(* Bind the arena to an instance + objective, resizing buffers and
   invalidating whatever the change makes stale. Buffer growth happens
   only here — the run_* cores never allocate. *)
let bind a ~objective inst =
  let rebound =
    match a.bound_inst with Some b -> not (b == inst) | None -> true
  in
  if rebound then begin
    let m = inst.Instance.m and c = inst.Instance.c and d = inst.Instance.d in
    if m <= 0 then invalid_arg "Flat.prepare: no devices (m = 0)";
    if c <= 0 then invalid_arg "Flat.prepare: no cells (c = 0)";
    a.bound_inst <- Some inst;
    a.pmat <- inst.Instance.p;
    a.m <- m;
    a.c <- c;
    a.d <- d;
    (* [order] stays exact-length (Strategy.of_sizes reads its length);
       everything else only needs capacity. *)
    if Array.length a.order <> c then a.order <- Array.make c 0;
    a.weights <- fa_cap a.weights c;
    a.table <- fa_cap a.table (c + 1);
    a.cum <- fa_cap a.cum (c + 1);
    a.acc <- fa_cap a.acc m;
    a.comp <- fa_cap a.comp m;
    a.masses <- fa_cap a.masses m;
    a.dp <- fa_cap a.dp (m + 1);
    a.e <- fa_cap a.e ((d + 1) * (c + 1));
    a.x <- ia_cap a.x ((d + 1) * (c + 1));
    a.sizes <- ia_cap a.sizes (Stdlib.max 1 d);
    a.ls_round_of <- ia_cap a.ls_round_of c;
    a.ls_counts <- ia_cap a.ls_counts (Stdlib.max 1 d);
    a.ls_masses <- fa_cap a.ls_masses (m * Stdlib.max 1 d);
    a.ls_scratch <- fa_cap a.ls_scratch m;
    a.ls_cells <- ia_cap a.ls_cells c;
    a.weights_ok <- false;
    a.order_is_weight <- false;
    a.table_ok <- false;
    a.coarse_ok <- false
  end;
  if a.objective <> objective then begin
    a.objective <- objective;
    a.table_ok <- false;
    a.coarse_ok <- false
  end

(* Cell weights, accumulated row-major for cache locality. Per cell the
   additions happen in device order 0..m-1 — the same sequence as the
   list-path column-walking [Instance.cell_weight] — so each weight is
   bit-identical. *)
let compute_weights a =
  let m = a.m and c = a.c in
  for j = 0 to c - 1 do
    FA.set a.weights j 0.0
  done;
  for i = 0 to m - 1 do
    let row = a.pmat.(i) in
    for j = 0 to c - 1 do
      FA.set a.weights j (FA.get a.weights j +. row.(j))
    done
  done;
  a.weights_ok <- true

let compute_weight_order a =
  if not a.weights_ok then compute_weights a;
  let c = a.c in
  for j = 0 to c - 1 do
    a.order.(j) <- j
  done;
  (* Same comparator as [Instance.weight_order_of] over the same
     (deterministically recomputed) weights: identical permutation. *)
  let w = a.weights in
  let cmp p q =
    let wp = FA.get w p and wq = FA.get w q in
    if wp <> wq then compare wq wp else compare p q
  in
  Array.sort cmp a.order;
  a.order_is_weight <- true;
  a.table_ok <- false;
  a.coarse_ok <- false

(* Full-resolution prefix success table: mirror of
   [Order_dp.prefix_success_table] — one continuous Neumaier chain per
   device over the order, success evaluated after every cell. *)
let compute_table a =
  let m = a.m and c = a.c in
  for i = 0 to m - 1 do
    FA.set a.acc i 0.0;
    FA.set a.comp i 0.0;
    FA.set a.masses i 0.0
  done;
  Objective.success_into a.objective ~src:a.masses ~off:0 ~n:m ~dp:a.dp
    ~dst:a.table ~di:0;
  for j = 1 to c do
    let cell = a.order.(j - 1) in
    for i = 0 to m - 1 do
      let sum = FA.get a.acc i and cmp = FA.get a.comp i in
      let p = a.pmat.(i).(cell) in
      let s = sum +. p in
      let cmp =
        if abs_float sum >= abs_float p then cmp +. (sum -. s +. p)
        else cmp +. (p -. s +. sum)
      in
      FA.set a.acc i s;
      FA.set a.comp i cmp;
      FA.set a.masses i (s +. cmp)
    done;
    Objective.success_into a.objective ~src:a.masses ~off:0 ~n:m ~dp:a.dp
      ~dst:a.table ~di:j
  done;
  (* Unit cumulative cost, as the list DP computes it. *)
  FA.set a.cum 0 0.0;
  for j = 1 to c do
    FA.set a.cum j (FA.get a.cum (j - 1) +. 1.0)
  done;
  a.table_ok <- true

(* Coarse boundary table: the same Neumaier chain, with the success
   fold evaluated only at block boundaries. Skipped evaluations never
   touch the per-device chain, so each boundary entry is bit-identical
   to the corresponding full-table entry — this is what makes the
   O(m·c) pass a once-per-instance cost instead of a per-solve one. *)
let compute_coarse a ~block =
  let m = a.m and c = a.c in
  let nblocks = (c + block - 1) / block in
  a.coarse_block <- block;
  a.nblocks <- nblocks;
  a.ftab_c <- fa_cap a.ftab_c (nblocks + 1);
  a.cum_c <- fa_cap a.cum_c (nblocks + 1);
  a.e <- fa_cap a.e ((a.d + 1) * (Stdlib.max (a.c + 1) (nblocks + 1)));
  a.x <- ia_cap a.x ((a.d + 1) * (Stdlib.max (a.c + 1) (nblocks + 1)));
  let boundary u = Stdlib.min c (u * block) in
  for i = 0 to m - 1 do
    FA.set a.acc i 0.0;
    FA.set a.comp i 0.0;
    FA.set a.masses i 0.0
  done;
  Objective.success_into a.objective ~src:a.masses ~off:0 ~n:m ~dp:a.dp
    ~dst:a.ftab_c ~di:0;
  let u = ref 1 in
  for j = 1 to c do
    let cell = a.order.(j - 1) in
    for i = 0 to m - 1 do
      let sum = FA.get a.acc i and cmp = FA.get a.comp i in
      let p = a.pmat.(i).(cell) in
      let s = sum +. p in
      let cmp =
        if abs_float sum >= abs_float p then cmp +. (sum -. s +. p)
        else cmp +. (p -. s +. sum)
      in
      FA.set a.acc i s;
      FA.set a.comp i cmp
    done;
    if !u <= nblocks && j = boundary !u then begin
      for i = 0 to m - 1 do
        FA.set a.masses i (FA.get a.acc i +. FA.get a.comp i)
      done;
      Objective.success_into a.objective ~src:a.masses ~off:0 ~n:m ~dp:a.dp
        ~dst:a.ftab_c ~di:!u;
      incr u
    end
  done;
  FA.set a.cum_c 0 0.0;
  for v = 1 to nblocks do
    FA.set a.cum_c v
      (FA.get a.cum_c (v - 1) +. float_of_int (boundary v - boundary (v - 1)))
  done;
  a.coarse_ok <- true

let prepare ?(objective = Objective.Find_all) a inst =
  bind a ~objective inst;
  if not a.order_is_weight then compute_weight_order a;
  if not a.table_ok then compute_table a

let prepare_coarse ?(objective = Objective.Find_all) ?(block = 16) a inst =
  if block < 1 then invalid_arg "Order_dp.solve_coarse: block must be >= 1";
  bind a ~objective inst;
  if not a.order_is_weight then compute_weight_order a;
  if not (a.coarse_ok && a.coarse_block = block) then compute_coarse a ~block

let prepare_order ?(objective = Objective.Find_all) a inst ~order =
  bind a ~objective inst;
  let c = a.c in
  (* Mirror Order_dp.check_order, including its error strings. *)
  if Array.length order <> c then
    invalid_arg "Order_dp: order must list every cell exactly once";
  let same =
    (not a.order_is_weight)
    &&
    let rec eq j = j >= c || (a.order.(j) = order.(j) && eq (j + 1)) in
    eq 0
  in
  if not (same && a.table_ok) then begin
    let seen = Array.make c false in
    Array.iter
      (fun j ->
        if j < 0 || j >= c || seen.(j) then
          invalid_arg "Order_dp: order is not a permutation of the cells"
        else seen.(j) <- true)
      order;
    Array.blit order 0 a.order 0 c;
    a.order_is_weight <- false;
    a.table_ok <- false;
    a.coarse_ok <- false;
    compute_table a
  end

(* ------------------------------------------------------------------ *)
(* The Fig. 1 DP, mirrored from [Order_dp.solve_with_prefix_success]
   onto the arena's flat matrices. [n] is the number of DP positions
   (cells, or blocks on the coarse path), [dd] the round budget, [b]
   the per-group cap, [ftab]/[cumtab] the prefix-success and
   cumulative-cost tables. Writes group sizes (in positions) into
   [a.sizes], the optimum into [a.out.(0)]. *)

let run_dp_core a ~n ~dd ~b ~ftab ~cumtab ~cancel =
  if b < 1 then invalid_arg "Order_dp: max_group must be >= 1";
  if n > b * dd then invalid_arg "Order_dp: bandwidth constraint infeasible";
  let width = n + 1 in
  let e = a.e and x = a.x in
  for idx = 0 to ((dd + 1) * width) - 1 do
    FA.set e idx infinity;
    x.(idx) <- 0
  done;
  for k = 1 to Stdlib.min n b do
    FA.set e (width + k) (FA.get cumtab n -. FA.get cumtab (n - k));
    x.(width + k) <- k
  done;
  for l = 2 to dd do
    for k = l to n do
      Cancel.check cancel;
      let v_lo = Stdlib.max 1 (k - (b * (l - 1))) in
      let v_hi = Stdlib.min b (k - l + 1) in
      let tail_start = n - k in
      let denom = 1.0 -. FA.get ftab tail_start in
      let row = l * width and prev = (l - 1) * width in
      for v = v_lo to v_hi do
        let cont =
          if denom <= 0.0 then 0.0
          else (1.0 -. FA.get ftab (tail_start + v)) /. denom
        in
        let cost =
          FA.get cumtab (tail_start + v)
          -. FA.get cumtab tail_start
          +. (cont *. FA.get e (prev + (k - v)))
        in
        if cost < FA.get e (row + k) then begin
          FA.set e (row + k) cost;
          x.(row + k) <- v
        end
      done
    done
  done;
  let rounds = Stdlib.min dd n in
  if FA.get e ((rounds * width) + n) = infinity then
    invalid_arg "Order_dp: no feasible strategy";
  let k = ref n in
  for l = rounds downto 1 do
    let v = x.((l * width) + !k) in
    a.sizes.(rounds - l) <- v;
    k := !k - v
  done;
  a.nsizes <- rounds;
  FA.set a.out 0 (FA.get e ((rounds * width) + n))

(* Internal cores take [cancel] as a required argument: an optional
   ~cancel:Cancel.never at a call site allocates [Some never] (the token
   is a mutable record, so the option cell cannot be statically
   allocated), which would break the zero-allocation guarantee. *)
let order_dp_core a cancel b =
  if not a.table_ok then invalid_arg "Flat.run_order_dp: arena not prepared";
  run_dp_core a ~n:a.c ~dd:a.d ~b ~ftab:a.table ~cumtab:a.cum ~cancel

let run_order_dp ?(cancel = Cancel.never) ?max_group a =
  order_dp_core a cancel (match max_group with None -> a.c | Some b -> b)

let greedy_core a cancel =
  if not a.order_is_weight then
    invalid_arg "Flat.run_greedy: arena not prepared with the weight order";
  order_dp_core a cancel a.c

let run_greedy ?(cancel = Cancel.never) a = greedy_core a cancel

let run_coarse ?(cancel = Cancel.never) a =
  if not a.coarse_ok then invalid_arg "Flat.run_coarse: arena not prepared";
  let nblocks = a.nblocks in
  let dd = Stdlib.min a.d nblocks in
  run_dp_core a ~n:nblocks ~dd ~b:nblocks ~ftab:a.ftab_c ~cumtab:a.cum_c
    ~cancel;
  (* Expand block-level sizes back to cells, in place (positions are
     consumed left to right, so each slot is read before overwrite). *)
  let block = a.coarse_block and c = a.c in
  let pos = ref 0 in
  for l = 0 to a.nsizes - 1 do
    let units = a.sizes.(l) in
    let lo = Stdlib.min c (!pos * block)
    and hi = Stdlib.min c ((!pos + units) * block) in
    pos := !pos + units;
    a.sizes.(l) <- hi - lo
  done

let run_page_all a =
  (match a.bound_inst with
  | None -> invalid_arg "Flat.run_page_all: arena not prepared"
  | Some _ -> ());
  a.sizes.(0) <- a.c;
  a.nsizes <- 1;
  (* Lemma 2.1 with one round: EP = c exactly (the list Kahan chain
     adds nothing to the initial term). *)
  FA.set a.out 0 (float_of_int a.c)

(* ------------------------------------------------------------------ *)
(* Local search. State mirrors [Local_search.state]; [ls_masses] is
   device-major like the list m x rounds matrix. *)

let sort_int_range arr lo len =
  for i = lo + 1 to lo + len - 1 do
    let v = arr.(i) in
    let j = ref (i - 1) in
    while !j >= lo && arr.(!j) > v do
      arr.(!j + 1) <- arr.(!j);
      decr j
    done;
    arr.(!j + 1) <- v
  done

(* Build LS state from the DP result in [a.sizes] over [a.order]:
   chunks sorted ascending (as Strategy.create sorts groups), masses
   accumulated group-by-group in ascending cell order — the exact
   addition sequence of [Local_search.state_of_strategy]. *)
let seed_ls a =
  let rounds = a.nsizes and m = a.m and c = a.c in
  a.ls_rounds <- rounds;
  Array.blit a.order 0 a.ls_cells 0 c;
  let ofs = ref 0 in
  for r = 0 to rounds - 1 do
    sort_int_range a.ls_cells !ofs a.sizes.(r);
    ofs := !ofs + a.sizes.(r)
  done;
  for idx = 0 to (m * rounds) - 1 do
    FA.set a.ls_masses idx 0.0
  done;
  let ofs = ref 0 in
  for r = 0 to rounds - 1 do
    a.ls_counts.(r) <- a.sizes.(r);
    for t = !ofs to !ofs + a.sizes.(r) - 1 do
      let cell = a.ls_cells.(t) in
      a.ls_round_of.(cell) <- r;
      for i = 0 to m - 1 do
        let idx = (i * rounds) + r in
        FA.set a.ls_masses idx (FA.get a.ls_masses idx +. a.pmat.(i).(cell))
      done
    done;
    ofs := !ofs + a.sizes.(r)
  done

(* Full EP of the LS state, mirror of [Local_search.ep]: per-round
   plain (uncompensated) prefix accumulation, result into out.(di). *)
let ls_ep_into a ~di =
  let m = a.m and rounds = a.ls_rounds in
  for i = 0 to m - 1 do
    FA.set a.ls_scratch i 0.0
  done;
  let total = ref (float_of_int a.c) in
  for r = 0 to rounds - 2 do
    for i = 0 to m - 1 do
      FA.set a.ls_scratch i
        (FA.get a.ls_scratch i +. FA.get a.ls_masses ((i * rounds) + r))
    done;
    Objective.success_into a.objective ~src:a.ls_scratch ~off:0 ~n:m ~dp:a.dp
      ~dst:a.out ~di:1;
    total := !total -. (float_of_int a.ls_counts.(r + 1) *. FA.get a.out 1)
  done;
  FA.set a.out di !total

(* Mirror of [Local_search.relocate], including the drift its ±p mass
   updates leave behind (later evaluations read the drifted values — the
   list scan does the same, so the climbs stay bit-identical). *)
let ls_relocate a cell target =
  let src = a.ls_round_of.(cell) in
  a.ls_round_of.(cell) <- target;
  a.ls_counts.(src) <- a.ls_counts.(src) - 1;
  a.ls_counts.(target) <- a.ls_counts.(target) + 1;
  let rounds = a.ls_rounds in
  for i = 0 to a.m - 1 do
    let p = a.pmat.(i).(cell) in
    FA.set a.ls_masses ((i * rounds) + src)
      (FA.get a.ls_masses ((i * rounds) + src) -. p);
    FA.set a.ls_masses ((i * rounds) + target)
      (FA.get a.ls_masses ((i * rounds) + target) +. p)
  done

let run_hill_climb ?(cancel = Cancel.never) a =
  (* Seed from the greedy cut, uncancelled — exactly as
     [Local_search.hill_climb] seeds from the weight-order DP. *)
  greedy_core a Cancel.never;
  seed_ls a;
  a.iters <- 0;
  ls_ep_into a ~di:0;
  (* out.(0) carries the current EP and out.(3) the best gain of the
     scan round: float refs would box (they stay live across the
     exception handler, which defeats ref unboxing). *)
  let c = a.c in
  a.improved <- true;
  (try
     while a.improved do
       a.improved <- false;
       FA.set a.out 3 1e-12;
       let best_kind = ref 0 and best_u = ref 0 and best_v = ref 0 in
       for cell = 0 to c - 1 do
         let src = a.ls_round_of.(cell) in
         if a.ls_counts.(src) > 1 then
           for target = 0 to a.ls_rounds - 1 do
             if target <> src then begin
               if Cancel.poll cancel then raise Out_of_budget;
               a.iters <- a.iters + 1;
               ls_relocate a cell target;
               ls_ep_into a ~di:2;
               ls_relocate a cell src;
               if FA.get a.out 0 -. FA.get a.out 2 > FA.get a.out 3 then begin
                 FA.set a.out 3 (FA.get a.out 0 -. FA.get a.out 2);
                 best_kind := 1;
                 best_u := cell;
                 best_v := target
               end
             end
           done
       done;
       for p = 0 to c - 1 do
         for q = p + 1 to c - 1 do
           if a.ls_round_of.(p) <> a.ls_round_of.(q) then begin
             if Cancel.poll cancel then raise Out_of_budget;
             a.iters <- a.iters + 1;
             let rp = a.ls_round_of.(p) and rq = a.ls_round_of.(q) in
             ls_relocate a p rq;
             ls_relocate a q rp;
             ls_ep_into a ~di:2;
             ls_relocate a q rq;
             ls_relocate a p rp;
             if FA.get a.out 0 -. FA.get a.out 2 > FA.get a.out 3 then begin
               FA.set a.out 3 (FA.get a.out 0 -. FA.get a.out 2);
               best_kind := 2;
               best_u := p;
               best_v := q
             end
           end
         done
       done;
       if !best_kind = 1 then begin
         ls_relocate a !best_u !best_v;
         ls_ep_into a ~di:0;
         a.improved <- true
       end
       else if !best_kind = 2 then begin
         let ru = a.ls_round_of.(!best_u) and rv = a.ls_round_of.(!best_v) in
         ls_relocate a !best_u rv;
         ls_relocate a !best_v ru;
         ls_ep_into a ~di:0;
         a.improved <- true
       end
     done
   with Out_of_budget -> ());
  a.nsizes <- a.ls_rounds;
  for r = 0 to a.ls_rounds - 1 do
    a.sizes.(r) <- a.ls_counts.(r)
  done

(* ------------------------------------------------------------------ *)
(* Result accessors and allocating conveniences. *)

let ep a = FA.get a.out 0
let rounds a = a.nsizes
let size_at a r = a.sizes.(r)
let iterations a = a.iters
let current_order a = Array.copy a.order

let dp_result a =
  let sizes = Array.sub a.sizes 0 a.nsizes in
  let strategy = Strategy.of_sizes ~order:a.order ~sizes in
  { Order_dp.strategy; sizes; expected_paging = FA.get a.out 0 }

let ls_strategy a =
  let r = a.ls_rounds in
  let groups = Array.init r (fun j -> Array.make a.ls_counts.(j) 0) in
  let fill = Array.make r 0 in
  for cell = 0 to a.c - 1 do
    let rr = a.ls_round_of.(cell) in
    groups.(rr).(fill.(rr)) <- cell;
    fill.(rr) <- fill.(rr) + 1
  done;
  Strategy.create groups

let greedy ?objective ?cancel a inst =
  prepare ?objective a inst;
  run_greedy ?cancel a;
  dp_result a

let order_dp ?objective ?max_group ?cancel a inst ~order =
  prepare_order ?objective a inst ~order;
  run_order_dp ?cancel ?max_group a;
  dp_result a

let bandwidth ?objective ?cancel a inst ~b =
  prepare ?objective a inst;
  run_order_dp ?cancel ~max_group:b a;
  dp_result a

let coarse ?objective ?block ?cancel a inst =
  prepare_coarse ?objective ?block a inst;
  run_coarse ?cancel a;
  dp_result a

let hill_climb ?objective ?cancel a inst =
  prepare ?objective a inst;
  run_hill_climb ?cancel a;
  {
    Local_search.strategy = ls_strategy a;
    expected_paging = FA.get a.out 0;
    iterations = a.iters;
  }
