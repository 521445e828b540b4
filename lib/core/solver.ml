type spec =
  | Greedy
  | Page_all
  | Bandwidth_limited of int
  | Exhaustive
  | Branch_and_bound
  | Best_exact
  | Local_search
  | Class_based
  | Robust of { eps : float; tv : float }

type outcome = Strategy.solution = {
  strategy : Strategy.t;
  expected_paging : float;
  exact : bool;
}

let spec_to_string = function
  | Greedy -> "greedy"
  | Page_all -> "page-all"
  | Bandwidth_limited b -> Printf.sprintf "bandwidth-%d" b
  | Exhaustive -> "exhaustive"
  | Branch_and_bound -> "bnb"
  | Best_exact -> "exact"
  | Local_search -> "local-search"
  | Class_based -> "class"
  | Robust { eps; tv } ->
    let num = Wire.Spec.float_to_string in
    if Float.is_finite tv then Printf.sprintf "robust-%s:%s" (num eps) (num tv)
    else "robust-" ^ num eps

(* Candidate pool for the robust re-ranking: the fast end of the
   default chain. Each candidate is scored by its worst-case EP over
   the perturbation ball; ties go to the earlier (stronger) method. *)
let robust_candidates = [ Local_search; Greedy; Page_all ]

let rec solve ?objective ?cancel ?(unguarded = false) ?arena spec inst =
  (* Dispatch counter (DESIGN §9): one counter per solver spec, so the
     registry shows which algorithms actually ran — including the
     recursive candidates a [Robust] re-rank fans out to. *)
  if Obs.on () then
    Obs.count ("solver_solve_" ^ Obs.sanitize (spec_to_string spec));
  let arena = Option.value arena ~default:(Flat.domain_arena ()) in
  let guard = not unguarded in
  match spec with
  | Greedy -> Flat.greedy ?objective ?cancel arena inst
  | Page_all ->
    (* One round never stops early: EP = c, bit-identical to the
       Lemma 2.1 evaluation (whose sum has no terms to subtract). *)
    {
      strategy = Strategy.page_all inst.Instance.c;
      expected_paging = float_of_int inst.Instance.c;
      exact = inst.Instance.d = 1;
    }
  | Bandwidth_limited b -> Flat.bandwidth ?objective ?cancel arena inst ~b
  | Exhaustive -> Optimal.exhaustive ?objective ?cancel ~guard inst
  | Branch_and_bound ->
    Optimal.branch_and_bound_d2 ?objective ?cancel ~guard inst
  | Best_exact ->
    (match Optimal.best ?objective ?cancel ~guard inst with
     | Some r -> r
     | None -> invalid_arg "Solver: instance too large for exact solving")
  | Local_search -> Flat.hill_climb ?objective ?cancel arena inst
  | Class_based -> Class_solver.solve ?objective ?cancel ~guard inst
  | Robust { eps; tv } ->
    (match
       most_robust ?objective ?cancel ~arena (Uncertainty.uniform ~tv eps)
         inst
     with
     | Some outcome -> { outcome with exact = false }
     | None -> invalid_arg "Solver: no robust candidate applies")

and most_robust ?objective ?cancel ?arena u inst =
  List.fold_left
    (fun best cand ->
      Option.iter Cancel.check cancel;
      match solve ?objective ?cancel ?arena cand inst with
      | outcome ->
        let r = Uncertainty.robust_ep ?objective u inst outcome.strategy in
        (match best with
         | Some (_, r') when r' <= r -> best
         | _ -> Some (outcome, r))
      | exception Invalid_argument _ -> best)
    None robust_candidates
  |> Option.map fst

let spec_of_string s =
  let ( let* ) = Result.bind in
  let radius what s =
    match Wire.Spec.float s with
    | Some x when x < 0.0 ->
      Error (Printf.sprintf "robust: %s must be >= 0" what)
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "robust: bad %s %S" what s)
  in
  match Wire.Spec.token s with
  | "greedy" -> Ok Greedy
  | "page-all" | "pageall" -> Ok Page_all
  | "exhaustive" -> Ok Exhaustive
  | "bnb" | "branch-and-bound" -> Ok Branch_and_bound
  | "exact" | "best-exact" -> Ok Best_exact
  | "local-search" | "local" -> Ok Local_search
  | "class" | "class-based" -> Ok Class_based
  | "robust" -> Ok (Robust { eps = 0.05; tv = infinity })
  | s ->
    (match Wire.Spec.(after "robust-" s, after "bandwidth-" s) with
     | Some body, _ ->
       let e, t =
         match Wire.Spec.parts ':' body with
         | [ e; t ] -> (e, Some t)
         | [ e ] -> (e, None)
         | _ -> (body, None)
       in
       let* eps = radius "eps" e in
       let* tv = Option.fold t ~none:(Ok infinity) ~some:(radius "tv") in
       if eps <= 1.0 then Ok (Robust { eps; tv })
       else Error "robust-<eps>[:<tv>] needs eps in [0, 1]"
     | None, Some b ->
       (match Wire.Spec.int b with
        | Some b when b >= 1 -> Ok (Bandwidth_limited b)
        | _ -> Error "bandwidth-<b> needs a positive integer")
     | None, None -> Error (Printf.sprintf "unknown solver %S" s))

let basic_specs =
  [ Greedy; Page_all; Exhaustive; Branch_and_bound; Best_exact; Local_search ]
