(* Test reference for Optimal's exact searches: the plain dᶜ
   round-labelling enumeration. Every cell gets a round label < d;
   unused labels collapse, so every strategy of length at most d
   appears (some more than once). The first minimum in labelling order
   wins, so ties go to the lexicographically smallest compact label
   vector — the rule the engine must reproduce. Exponential: keep c
   small. *)

open Confcall
module Q = Numeric.Rational

let strategy_of_labels ~c ~d labels =
  let buckets = Array.make d [] in
  for j = c - 1 downto 0 do
    buckets.(labels.(j)) <- j :: buckets.(labels.(j))
  done;
  Strategy.create
    (Array.of_list
       (List.filter_map
          (fun g -> if g = [] then None else Some (Array.of_list g))
          (Array.to_list buckets)))

let enumerate_strategies ~c ~d ~max_group visit =
  let labels = Array.make c 0 in
  let counts = Array.make d 0 in
  let rec go j =
    if j = c then visit labels
    else
      for l = 0 to d - 1 do
        if counts.(l) < max_group then begin
          labels.(j) <- l;
          counts.(l) <- counts.(l) + 1;
          go (j + 1);
          counts.(l) <- counts.(l) - 1
        end
      done
  in
  go 0

(* The float minimizer under [Strategy.expected_paging_unchecked]. *)
let exhaustive ?objective ?max_group inst =
  let c = inst.Instance.c and d = inst.Instance.d in
  let max_group = Option.value max_group ~default:c in
  let best = ref None in
  enumerate_strategies ~c ~d ~max_group (fun labels ->
      let strategy = strategy_of_labels ~c ~d labels in
      let ep = Strategy.expected_paging_unchecked ?objective inst strategy in
      match !best with
      | Some (_, best_ep) when best_ep <= ep -> ()
      | _ -> best := Some (strategy, ep));
  match !best with
  | Some (strategy, expected_paging) ->
    { Strategy.strategy; expected_paging; exact = true }
  | None -> invalid_arg "Exhaustive_ref.exhaustive: no feasible strategy"

(* The rational minimizer under [Strategy.expected_paging_exact]. *)
let exhaustive_exact ?objective inst =
  let c = inst.Instance.Exact.c and d = inst.Instance.Exact.d in
  let best = ref None in
  enumerate_strategies ~c ~d ~max_group:c (fun labels ->
      let strategy = strategy_of_labels ~c ~d labels in
      let ep = Strategy.expected_paging_exact ?objective inst strategy in
      match !best with
      | Some (_, best_ep) when Q.compare best_ep ep <= 0 -> ()
      | _ -> best := Some (strategy, ep));
  match !best with
  | Some pair -> pair
  | None -> invalid_arg "Exhaustive_ref.exhaustive_exact: no feasible strategy"
