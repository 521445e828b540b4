(** Minimal JSON for the serve wire protocol.

    Hand-rolled on purpose: frames are small objects of numbers,
    strings, booleans and nested arrays, and the container must not
    grow dependencies. The printer uses [", "]/[": "] separators and
    prints numbers as [%.12g]. The CLI's [--json] output and bench's
    [BENCH_*.json] records build their strings and numbers with
    {!to_string} too, so a daemon response and a CLI solve print
    strategies and expected paging {e byte-identically} — the
    differential tests lean on that.

    The parser is total: any byte string returns [Ok] or [Error],
    never an exception — it sits directly behind the network boundary
    and is fuzzed as such. It is lenient where strictness buys nothing
    (raw control bytes inside strings are accepted; lone surrogates
    decode to U+FFFD) and strict where the protocol cares (numbers must
    be finite, nesting is depth-capped). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse ?max_depth s] parses one JSON value spanning the whole
    string (trailing whitespace allowed). Default depth cap: 64. *)
val parse : ?max_depth:int -> string -> (t, string) result

val to_string : t -> string

(** {2 Accessors} — shape-tolerant lookups for protocol fields. *)

val member : string -> t -> t option
(** [member k (Obj ...)]; [None] on other shapes or absent keys. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
(** Numbers without a fractional part only. *)

val to_bool : t -> bool option
