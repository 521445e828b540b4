let check inst ~k =
  match Objective.validate (Objective.Find_at_least k) ~m:inst.Instance.m with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Signature: " ^ reason)

let solve inst ~k =
  check inst ~k;
  Greedy.solve ~objective:(Objective.Find_at_least k) inst

let exhaustive inst ~k =
  check inst ~k;
  Optimal.exhaustive ~objective:(Objective.Find_at_least k) inst

let sweep inst =
  Array.init inst.Instance.m (fun i ->
      (solve inst ~k:(i + 1)).Strategy.expected_paging)

(* ---------------- canonical instance keys ----------------

   The serve-side result cache needs one stable key per problem, not
   per byte representation. Two instances that differ only in device
   order are the same problem — every objective here ([Find_all],
   [Find_any], [Find_at_least]) is symmetric under device permutation
   and a strategy is a partition of cells only — so rows are sorted
   into a canonical order. Entries are quantized to a 1e-9 grid first
   so that float noise below the grid (re-serialized matrices,
   re-estimated profiles) maps to the same key; instances closer than
   the grid intentionally collide, which trades sub-quantum EP
   differences for cache hits and is documented at the API. Journals
   persist keys, so the grid and the key text are fixed. *)
let canonical_key ~objective inst =
  let { Instance.m; c; d; p } = inst in
  let buf = Buffer.create (m * c * 8) in
  let rows =
    Array.map
      (fun row ->
        Buffer.clear buf;
        Array.iter
          (fun x ->
            (* A probability quantizes to at most 1e9; the guard keeps
               the int64 conversion exact for any larger entry. *)
            let q = Float.round (x /. 1e-9) in
            if Float.abs q > 1e15 then
              Buffer.add_string buf (Printf.sprintf "%.17g;" x)
            else
              Buffer.add_string buf
                (Printf.sprintf "%Ld;" (Int64.of_float q)))
          row;
        Buffer.contents buf)
      p
  in
  Array.sort String.compare rows;
  let material =
    Printf.sprintf "v1|m=%d|c=%d|d=%d|obj=%s|q=1e-09|%s" m c d
      (Objective.to_string objective)
      (String.concat "|" (Array.to_list rows))
  in
  Digest.to_hex (Digest.string material)
