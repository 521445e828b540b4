(** The serve wire protocol: JSONL frames over a stream socket.

    One request per line, one response line per request. Requests carry
    a client-chosen [id] echoed on the response, so clients may
    pipeline freely — responses complete (and are written) out of
    order under load.

    Request frames:
    {v
    {"id":"r1","op":"solve","instance":"2 4 2\n...","solver":"greedy"}
    {"id":"r2","op":"solve","instance":"...","budget_ms":50,
     "chain":"default","objective":"all","cache":true}
    {"id":"r3","op":"simulate","scenario":"suburb","seed":7,"replicas":2}
    {"id":"r4","op":"health"}   {"id":"r5","op":"metrics"}
    {"id":"r6","op":"drain"}
    v}

    Every response carries ["id"] and ["status"]: ["ok"], ["degraded"]
    (a valid but quality-reduced answer: the deadline fired and the
    anytime best-so-far came back, or overload downgraded the fallback
    chain), ["rejected"] (admission control refused — ["reason"] is
    ["overload"] or ["draining"]) or ["error"] (malformed frame,
    invalid instance — the connection itself stays up). *)

type solve_req = {
  instance : string;  (** {!Confcall.Instance.of_string} text format *)
  solver : string option;  (** solver spec; default greedy *)
  chain : string option;  (** fallback chain; triggers the runner path *)
  budget_ms : float option;
      (** per-request deadline, armed at {e admission} — queueing time
          counts against it *)
  objective : string option;  (** "all" | "any" | k; default all *)
  cache : bool;  (** consult/populate the result cache (default true) *)
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

(** [solve_fields sr] — the inverse of decoding a solve frame: its
    fields without ["id"], optional ones only when set and ["cache"]
    only when off, in the order op, instance, solver, chain, budget_ms,
    objective, cache, request_id. [budget_ms] round-trips bit for
    bit. *)
val solve_fields : solve_req -> (string * Json.t) list

(** [frame_id json] — a frame's ["id"]: a string, or a number as
    {!Json.to_string} prints it. *)
val frame_id : Json.t -> string option

(** [decode line] — total: any byte string yields a frame or a message
    for an ["error"] response. When the line parses far enough to carry
    an id, the error message is paired with it so the client can match
    the failure to its request. *)
val decode : string -> (frame, string option * string) result

(** {2 Response builders} — return one line, without the newline. *)

val error_frame : id:string option -> string -> string

(** [retry_after_ms]: backpressure hint — how long the client should
    wait before retrying (overload estimate, or the circuit breaker's
    remaining cooldown). *)
val rejected_frame :
  id:string -> ?retry_after_ms:int -> reason:string -> unit -> string

val frame :
  id:string -> status:string -> ?body:string -> (string * Json.t) list -> string
(** [frame ~id ~status ?body fields] —
    [{"id": id, "status": status, body..., fields...}]. [body] is a
    stored response body (see {!body}) spliced in byte for byte: the
    cache journal persists bodies across restarts, so a hit replays the
    bytes the original solve printed. *)

val body : ?stored:string -> (string * Json.t) list -> string
(** [body ?stored fields] — a response body: [stored] followed by
    [fields], printed as object members without braces. *)

(** {2 Response decoding (client side)}

    Forward compatibility is a hard contract: a newer daemon may add
    fields to any frame and an older client must keep working, so
    decoding only ever looks up the fields it knows and never fails on
    one it does not recognise. *)

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

(** [decode_response line] — requires a JSON object with a ["status"]
    field; everything else is optional and unknown fields are
    ignored. *)
val decode_response : string -> (response, string) result
