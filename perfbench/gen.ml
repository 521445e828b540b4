(* Workload inputs for the served workloads, drawn from the benchmark's
   seed only. Frames are encoded here, before any timed phase. *)

open Confcall
module Json = Wire.Json
module Rng = Prob.Rng

type path = Direct of string  (** [solver] field *) | Chain of string

type req = {
  idx : int;  (** position in its request list *)
  escaped : string;
      (** the instance, in the {!Instance.of_string} format, as a JSON
          string literal — the only copy held, shared by repeats *)
  objective : string option;  (** [None]: the daemon's default, all *)
  path : path;
  origin : int;
      (** index of the request whose answer this one must reproduce:
          [idx] itself for an original, an earlier index for an exact
          repeat (same instance, objective and path) *)
}

(* The instance text (decoded from its literal, outside timed phases). *)
let text r =
  match Json.parse r.escaped with
  | Ok (Json.Str t) -> t
  | _ -> invalid_arg "Gen.text: malformed literal"

let path_field = function
  | Direct s -> ("solver", s)
  | Chain c -> ("chain", c)

let optional_fields r =
  let k, v = path_field r.path in
  (k, v)
  :: (match r.objective with Some o -> [ ("objective", o) ] | None -> [])

(* The frame as a JSON value: what {!Json.to_string} turns into the
   bytes on the wire (timed as wire.encode_request by the traced run). *)
let request_json ~id r =
  Json.Obj
    ([ ("id", Json.Str id); ("op", Json.Str "solve"); ("instance", Json.Str (text r)) ]
    @ List.map (fun (k, v) -> (k, Json.Str v)) (optional_fields r))

(* The same bytes as [Json.to_string (request_json ~id r) ^ "\n"], as
   pieces: the instance literal is shared by every frame that carries it,
   so a mid-scale matrix sent six times is held once. *)
let frame_pieces ~id r =
  let q s = Json.to_string (Json.Str s) in
  let tail =
    String.concat ""
      (List.map (fun (k, v) -> ", " ^ q k ^ ": " ^ q v) (optional_fields r))
  in
  [
    "{" ^ q "id" ^ ": " ^ q id ^ ", " ^ q "op" ^ ": " ^ q "solve" ^ ", "
    ^ q "instance" ^ ": ";
    r.escaped;
    tail ^ "}\n";
  ]

let literal inst = Json.to_string (Json.Str (Instance.to_string inst))

(* serve-paper: distinct zipf instances at the paper's scale, half direct
   greedy and half the unbudgeted heuristic chain. About a quarter of
   the requests exactly repeat an earlier original, [repeat_min] to
   [repeat_max] positions back — far enough that the original has been
   answered (and cached) long before the repeat is sent. *)
let repeat_share = 0.25
let repeat_min = 64
let repeat_max = 512

let paper rng ~n =
  let reqs = Array.make n None in
  let get i = Option.get reqs.(i) in
  for i = 0 to n - 1 do
    let r =
      if i >= repeat_max && Rng.unit_float rng < repeat_share then
        let o = get (get (i - Rng.int_range rng repeat_min repeat_max)).origin in
        { o with idx = i }
      else
        let m = Rng.int_range rng 2 6 in
        let c = Rng.int_range rng 12 41 in
        let d = Rng.int_range rng 2 4 in
        let path = if Rng.bool rng then Direct "greedy" else Chain "heuristic" in
        let inst = Instance.random_zipf rng ~s:1.0 ~m ~c ~d in
        { idx = i; escaped = literal inst; objective = None; path; origin = i }
    in
    reqs.(i) <- Some r
  done;
  Array.map Option.get reqs

(* serve-mid: m = 16, c = 1000, d = 4 zipf matrices. Each matrix is sent
   six times back to back (objectives all, any and 8, each once by direct
   greedy and once by the fast chain, in a seeded order), then retired:
   every request has its own cache key, so every one misses. *)
let mid_m = 16
let mid_c = 1000
let mid_d = 4

let mid_variants =
  [|
    (Some "all", Direct "greedy"); (Some "all", Chain "fast");
    (Some "any", Direct "greedy"); (Some "any", Chain "fast");
    (Some "8", Direct "greedy"); (Some "8", Chain "fast");
  |]

let mid rng ~matrices =
  let per = Array.length mid_variants in
  let out = ref [] in
  for k = 0 to matrices - 1 do
    let escaped = literal (Instance.random_zipf rng ~s:1.0 ~m:mid_m ~c:mid_c ~d:mid_d) in
    let order = Array.copy mid_variants in
    Rng.shuffle rng order;
    Array.iteri
      (fun j (objective, path) ->
        let idx = (k * per) + j in
        out := { idx; escaped; objective; path; origin = idx } :: !out)
      order
  done;
  Array.of_list (List.rev !out)

(* Open-loop arrival offsets (seconds from phase start): a Poisson
   process of [rate] per second. *)
let poisson rng ~rate ~n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t +. Rng.exponential rng ~rate;
      !t)
