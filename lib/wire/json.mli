(** Minimal JSON: the one printer and parser of this repository.

    Hand-rolled on purpose: the container must not grow dependencies.
    Every JSON document the CLI ([--json]), the serve daemon (every
    frame) and bench ([BENCH_*.json]) print is a {!t} tree printed by
    {!to_string}; nothing outside this library composes JSON from
    strings. The one splice is {!Proto.frame}'s stored body: bytes this
    printer produced earlier (a cache journal entry, a deduplicated
    answer).

    The printer uses [", "]/[": "] separators. A finite number prints
    as {!Spec.float_to_string} writes it, so [parse (to_string (Num x))]
    returns [Num x] bit for bit; a non-finite one prints as its quoted
    [%h] string. Print, parse, print is the identity.

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

val members_to_string : (string * t) list -> string
(** The members of an object as {!to_string} prints them, without the
    braces: the stored form of a response body. *)

(** {2 Builders} *)

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

val int_rows : int array array -> t
(** Rows of integers as an array of arrays — a paging strategy's
    ordered cell groups. *)

(** {2 Accessors} — shape-tolerant lookups for protocol fields. *)

val member : string -> t -> t option
(** [member k (Obj ...)]; [None] on other shapes or absent keys. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
(** Numbers without a fractional part only. *)

val to_bool : t -> bool option
