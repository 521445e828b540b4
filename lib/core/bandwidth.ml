let feasible ~c ~d ~b = b >= 1 && c <= b * d

let solve ?objective ?cancel inst ~b =
  Flat.bandwidth ?objective ?cancel (Flat.domain_arena ()) inst ~b

let exhaustive ?objective inst ~b =
  Optimal.exhaustive ?objective ~max_group:b inst

let sweep inst ~bs =
  Array.map
    (fun b ->
      if feasible ~c:inst.Instance.c ~d:inst.Instance.d ~b then
        (solve inst ~b).Strategy.expected_paging
      else nan)
    bs
