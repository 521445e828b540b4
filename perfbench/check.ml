(* Answer verification. Every ok answer is compared bit for bit (its
   expected_paging as printed on the wire, and its strategy) against the
   same instance, objective and path solved in process, outside the
   timed phases; its rung and cache field must be the ones the workload
   predicts. Anything else — an error, a shed, a degraded or non-full
   answer, a missing reply — is a failure. *)

open Confcall
module Json = Wire.Json

type expect = { ep : string; strategy : int array array }

let parse_objective = function
  | None | Some "all" -> Objective.Find_all
  | Some "any" -> Objective.Find_any
  | Some k -> Objective.Find_at_least (int_of_string k)

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* The daemon's direct path is [Solver.solve] without an arena; its chain
   path is [Runner.run] with the lane's arena (bit-identical either way,
   which the repository's own tests pin). *)
let outcome ?inst (r : Gen.req) =
  let inst = match inst with Some i -> i | None -> Instance.of_string (Gen.text r) in
  let objective = parse_objective r.objective in
  match r.path with
  | Gen.Direct s -> Solver.solve ~objective (ok_or_fail (Solver.spec_of_string s)) inst
  | Gen.Chain c ->
    let chain = ok_or_fail (Runner.chain_of_string c) in
    (match (Runner.run ~objective ~chain ~arena:(Flat.domain_arena ()) inst).Runner.winner with
     | Some (_, o) -> o
     | None -> failwith "runner: no winner")

let expect ?inst r =
  let o = outcome ?inst r in
  { ep = Json.to_string (Json.Num o.Solver.expected_paging); strategy = Strategy.groups o.Solver.strategy }

type cache_rule = Must_miss | Must_hit | Either

type verdict = {
  ok : bool;
  why : string;  (** empty when ok *)
  ep : float;  (** the answer's expected paging (nan on failure) *)
  queue_ms : float option;
  exec_ms : float option;
  full_rung : bool option;  (** [None] for cache hits, which carry no rung *)
}

let failed why = { ok = false; why; ep = Float.nan; queue_ms = None; exec_ms = None; full_rung = None }

let strategy_of_json = function
  | Json.Arr groups ->
    Some
      (Array.of_list
         (List.map
            (function
              | Json.Arr cells -> Array.of_list (List.map (fun c -> Option.get (Json.to_int c)) cells)
              | _ -> raise Exit)
            groups))
  | _ -> None

let str k json = Option.bind (Json.member k json) Json.to_str
let num k json = Option.bind (Json.member k json) Json.to_num

(* [judge ~expect ~cache line] checks one response line. *)
let judge ~(expect : expect) ~cache line =
  match Wire.Proto.decode_response line with
  | Error e -> failed ("undecodable reply: " ^ e)
  | Ok resp when resp.Wire.Proto.status <> "ok" ->
    failed
      (Printf.sprintf "status %s%s" resp.Wire.Proto.status
         (match (resp.Wire.Proto.reason, resp.Wire.Proto.error) with
          | Some r, _ | None, Some r -> " (" ^ r ^ ")"
          | None, None -> ""))
  | Ok resp -> (
    let json = resp.Wire.Proto.json in
    let got_ep = Option.map (fun x -> Json.to_string (Json.Num x)) (num "expected_paging" json) in
    let got_strategy =
      match Json.member "strategy" json with
      | Some s -> (try strategy_of_json s with Exit | Invalid_argument _ -> None)
      | None -> None
    in
    let cache_field = str "cache" json in
    let ladder = str "ladder" json in
    let cache_ok =
      match (cache, cache_field) with
      | Must_miss, Some "miss" | Must_hit, Some "hit" -> true
      | Either, Some ("hit" | "miss") -> true
      | _ -> false
    in
    match () with
    | () when got_ep <> Some expect.ep ->
      failed
        (Printf.sprintf "expected_paging %s, recomputed %s"
           (Option.value got_ep ~default:"missing") expect.ep)
    | () when got_strategy <> Some expect.strategy -> failed "strategy differs from recomputation"
    | () when not cache_ok ->
      failed
        (Printf.sprintf "cache %s, predicted %s"
           (Option.value cache_field ~default:"missing")
           (match cache with Must_miss -> "miss" | Must_hit -> "hit" | Either -> "hit or miss"))
    | () when cache_field = Some "miss" && ladder <> Some "full" ->
      failed ("rung " ^ Option.value ladder ~default:"missing" ^ ", predicted full")
    | () ->
      {
        ok = true;
        why = "";
        ep = Option.get (num "expected_paging" json);
        queue_ms = num "queue_ms" json;
        exec_ms = num "elapsed_ms" json;
        full_rung = Option.map (fun l -> l = "full") ladder;
      })

(* Response id → request index, for the ids [prefix ^ string_of_int i]. *)
let index_of ~prefix line =
  match Wire.Proto.decode_response line with
  | Ok { Wire.Proto.rid = Some id; _ } when String.starts_with ~prefix id ->
    int_of_string_opt (String.sub id (String.length prefix) (String.length id - String.length prefix))
  | _ -> None

type answered = {
  req : Gen.req;
  latency_ms : float;  (** from the scheduled send (open loop) or the send *)
  lag_ms : float;  (** enqueue time minus scheduled time; 0 in the closed loop *)
  verdict : verdict;
  line : string;
}

type phase_result = {
  attempted : int;
  answered : answered list;
  failures : (int * string) list;  (** request index, reason *)
}

(* Pair every sent request of a phase with its reply and judge it. A
   repeat must hit the cache when its original's reply had arrived
   before the repeat was sent; otherwise either outcome is legitimate
   (the original may still have been in flight). *)
let phase ~prefix ~(reqs : Gen.req array) ~expect_of (p : Loadgen.phase) =
  let n = Array.length reqs in
  let reply = Array.make n None in
  List.iter
    (fun (r : Loadgen.reply) ->
      match index_of ~prefix r.Loadgen.line with
      | Some i when i >= 0 && i < n -> reply.(i) <- Some r
      | _ -> ())
    p.Loadgen.replies;
  let answered = ref [] and failures = ref [] and attempted = ref 0 in
  for i = 0 to n - 1 do
    if not (Float.is_nan p.Loadgen.sent_at.(i)) then begin
      incr attempted;
      let req = reqs.(i) in
      match reply.(i) with
      | None -> failures := (i, "unanswered") :: !failures
      | Some r ->
        let cache =
          if req.Gen.origin = i then Must_miss
          else
            match reply.(req.Gen.origin) with
            | Some o when o.Loadgen.t_recv < p.Loadgen.sent_at.(i) -> Must_hit
            | _ -> Either
        in
        let verdict = judge ~expect:(expect_of i) ~cache r.Loadgen.line in
        if not verdict.ok then failures := (i, verdict.why) :: !failures
        else begin
          let scheduled = if Float.is_nan p.Loadgen.due_at.(i) then p.Loadgen.sent_at.(i) else p.Loadgen.due_at.(i) in
          let lag = if Float.is_nan p.Loadgen.due_at.(i) then 0.0 else p.Loadgen.sent_at.(i) -. p.Loadgen.due_at.(i) in
          answered :=
            { req; latency_ms = (r.Loadgen.t_recv -. scheduled) *. 1000.0; lag_ms = lag *. 1000.0; verdict; line = r.Loadgen.line }
            :: !answered
        end
    end
  done;
  { attempted = !attempted; answered = List.rev !answered; failures = List.rev !failures }

(* [expecter reqs] recomputes the expected answer of request [i] on
   demand, once per original (repeats share their origin's); consecutive
   requests carrying the same instance literal share one parse. *)
let expecter (reqs : Gen.req array) =
  let memo = Hashtbl.create 64 and parsed = ref ("", None) in
  let instance (r : Gen.req) =
    match !parsed with
    | lit, Some inst when lit == r.Gen.escaped -> inst
    | _ ->
      let inst = Instance.of_string (Gen.text r) in
      parsed := (r.Gen.escaped, Some inst);
      inst
  in
  fun i ->
    let o = reqs.(i).Gen.origin in
    match Hashtbl.find_opt memo o with
    | Some e -> e
    | None ->
      let e = expect ~inst:(instance reqs.(o)) reqs.(o) in
      Hashtbl.add memo o e;
      e
