type solve_req = {
  instance : string;
  solver : string option;
  chain : string option;
  budget_ms : float option;
  objective : string option;
  cache : bool;
  request_id : string option;
      (** Client-generated idempotency key: the server deduplicates
          in-flight and recently-completed ids, so a retried or hedged
          solve never executes twice. Distinct from the frame [id],
          which is fresh per attempt. *)
}

type request =
  | Solve of solve_req
  | Simulate of { scenario : string; seed : int; replicas : int }
  | Health
  | Metrics
  | Drain

type frame = { id : string; req : request }

(* ---------------- decoding ---------------- *)

let field_str json k =
  match Json.member k json with
  | None -> Ok None
  | Some v ->
    (match Json.to_str v with
     | Some s -> Ok (Some s)
     | None -> Error (Printf.sprintf "field %S must be a string" k))

let field_num json k =
  match Json.member k json with
  | None -> Ok None
  | Some v ->
    (match Json.to_num v with
     | Some x -> Ok (Some x)
     | None -> Error (Printf.sprintf "field %S must be a number" k))

let field_int json k =
  match Json.member k json with
  | None -> Ok None
  | Some v ->
    (match Json.to_int v with
     | Some x -> Ok (Some x)
     | None -> Error (Printf.sprintf "field %S must be an integer" k))

let field_bool json k =
  match Json.member k json with
  | None -> Ok None
  | Some v ->
    (match Json.to_bool v with
     | Some b -> Ok (Some b)
     | None -> Error (Printf.sprintf "field %S must be a boolean" k))

let ( let* ) = Result.bind

let decode_solve json =
  let* instance = field_str json "instance" in
  let* solver = field_str json "solver" in
  let* chain = field_str json "chain" in
  let* budget_ms = field_num json "budget_ms" in
  let* objective = field_str json "objective" in
  let* cache = field_bool json "cache" in
  let* request_id = field_str json "request_id" in
  let* instance =
    match instance with
    | Some s when s <> "" -> Ok s
    | Some _ | None -> Error "solve requires a non-empty \"instance\" field"
  in
  let* () =
    match budget_ms with
    | Some b when not (Float.is_finite b) || b <= 0.0 ->
      Error "\"budget_ms\" must be positive and finite"
    | Some _ | None -> Ok ()
  in
  let* () =
    match request_id with
    | Some "" -> Error "\"request_id\" must be non-empty"
    | Some r when String.length r > 256 ->
      Error "\"request_id\" longer than 256 bytes"
    | Some _ | None -> Ok ()
  in
  Ok
    (Solve
       {
         instance;
         solver;
         chain;
         budget_ms;
         objective;
         cache = Option.value cache ~default:true;
         request_id;
       })

(* The inverse of [decode_solve]: optional fields appear only when set,
   and ["cache"] only when off, in this order. *)
let solve_fields sr =
  let str k = function Some s -> [ (k, Json.Str s) ] | None -> [] in
  [ ("op", Json.Str "solve"); ("instance", Json.Str sr.instance) ]
  @ str "solver" sr.solver
  @ str "chain" sr.chain
  @ (match sr.budget_ms with
     | Some b -> [ ("budget_ms", Json.Num b) ]
     | None -> [])
  @ str "objective" sr.objective
  @ (if sr.cache then [] else [ ("cache", Json.Bool false) ])
  @ str "request_id" sr.request_id

let decode_simulate json =
  let* scenario = field_str json "scenario" in
  let* seed = field_int json "seed" in
  let* replicas = field_int json "replicas" in
  let* scenario =
    match scenario with
    | Some s when s <> "" -> Ok s
    | Some _ | None -> Error "simulate requires a \"scenario\" field"
  in
  let seed = Option.value seed ~default:1 in
  let replicas = Option.value replicas ~default:1 in
  let* () =
    if replicas < 1 || replicas > 64 then
      Error "\"replicas\" must be in [1, 64]"
    else Ok ()
  in
  Ok (Simulate { scenario; seed; replicas })

let frame_id json =
  match Json.member "id" json with
  | Some (Json.Str s) -> Some s
  | Some (Json.Num x) -> Some (Json.to_string (Json.Num x))
  | _ -> None

let decode line =
  match Json.parse line with
  | Error msg -> Error (None, "parse: " ^ msg)
  | Ok json ->
    let id = frame_id json in
    let fail msg = Error (id, msg) in
    (match json with
     | Json.Obj _ ->
       (match id with
        | None -> fail "frame requires a string \"id\" field"
        | Some id ->
          if String.length id > 256 then
            fail "\"id\" longer than 256 bytes"
          else begin
            let finish = function
              | Ok req -> Ok { id; req }
              | Error msg -> fail msg
            in
            match Json.member "op" json with
            | Some (Json.Str "solve") -> finish (decode_solve json)
            | Some (Json.Str "simulate") -> finish (decode_simulate json)
            | Some (Json.Str "health") -> Ok { id; req = Health }
            | Some (Json.Str "metrics") -> Ok { id; req = Metrics }
            | Some (Json.Str "drain") -> Ok { id; req = Drain }
            | Some (Json.Str other) ->
              fail
                (Printf.sprintf
                   "unknown op %S (expected solve|simulate|health|metrics|drain)"
                   (if String.length other > 64 then String.sub other 0 64
                    else other))
            | Some _ -> fail "field \"op\" must be a string"
            | None -> fail "frame requires an \"op\" field"
          end)
     | _ -> fail "frame must be a JSON object")

(* ---------------- responses ---------------- *)

(* Two printed member lists joined as one. *)
let join a b = if a = "" then b else if b = "" then a else a ^ ", " ^ b

let body ?(stored = "") fields = join stored (Json.members_to_string fields)

let frame ~id ~status ?body:stored fields =
  let head = [ ("id", Json.Str id); ("status", Json.Str status) ] in
  match stored with
  | None -> Json.to_string (Json.Obj (head @ fields))
  | Some stored ->
    "{" ^ join (Json.members_to_string head) (body ~stored fields) ^ "}"

let rejected_frame ~id ?retry_after_ms ~reason () =
  let hint ms = ("retry_after_ms", Json.int ms) in
  frame ~id ~status:"rejected"
    (("reason", Json.Str reason)
    :: Option.to_list (Option.map hint retry_after_ms))

let error_frame ~id msg =
  let error = ("error", Json.Str msg) in
  match id with
  | Some id -> frame ~id ~status:"error" [ error ]
  | None -> Json.to_string (Json.Obj [ ("status", Json.Str "error"); error ])

(* ---------------- response decoding (client side) ----------------

   Forward compatibility is a hard contract here: a newer daemon may
   add fields to any frame, and an older client must keep working.
   Decoding therefore only ever *looks up* the fields it knows — it
   never enumerates, and it never fails on a field it does not
   recognise. Unknown [status] values survive as-is; the caller decides
   how conservative to be about them. *)

type response = {
  rid : string option;  (** echoed frame id, when the server had one *)
  status : string;  (** ok | degraded | rejected | error | future values *)
  reason : string option;  (** rejected: overload | draining | ... *)
  retry_after_ms : int option;  (** server backoff hint, milliseconds *)
  error : string option;  (** error frames: human-readable cause *)
  cache_hit : bool;  (** answered from the server's result cache *)
  dedup_hit : bool;  (** answered from the idempotency dedup table *)
  json : Json.t;  (** the whole frame, for fields not modelled here *)
}

let decode_response line =
  match Json.parse line with
  | Error msg -> Error ("parse: " ^ msg)
  | Ok (Json.Obj _ as json) ->
    let str k = Option.bind (Json.member k json) Json.to_str in
    (match str "status" with
     | None -> Error "response frame has no \"status\" field"
     | Some status ->
       Ok
         {
           rid = frame_id json;
           status;
           reason = str "reason";
           retry_after_ms =
             Option.bind (Json.member "retry_after_ms" json) Json.to_int;
           error = str "error";
           cache_hit = str "cache" = Some "hit";
           dedup_hit = str "dedup" = Some "hit";
           json;
         })
  | Ok _ -> Error "response frame must be a JSON object"
