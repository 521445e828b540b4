let order inst = Instance.weight_order inst
let solve ?objective ?cancel inst =
  Flat.greedy ?objective ?cancel (Flat.domain_arena ()) inst
let approximation_factor = Numeric.Convex.e_over_e_minus_1
let approximation_factor_m2d2 = 4.0 /. 3.0
let ratio_lower_bound = 320.0 /. 317.0
