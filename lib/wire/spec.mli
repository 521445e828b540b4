(** The spec grammar: how a short spec string ([robust-0.1:0.3],
    [pareto:1.6:3.5], [repeat:2:1], a chaos spec, an endpoint list)
    splits into parts and how a number is written in one. Every spec
    parser and printer of the repository goes through here, so a
    printed spec parses back to the same value.

    A number is decimal: the number grammar {!Json.parse} reads,
    [-?digits[.digits][(e|E)[+-]digits]], finite. [0x10], [1_0], [+3],
    [.5], [1.], [nan] and [inf] are not numbers. *)

val scan : string -> int -> (int, int) result
(** [scan s i] lexes the number that starts at byte [i] of [s]: [Ok j]
    with [j] the byte after its longest match, or [Error k] with [k]
    the byte where a digit was expected. *)

val int : string -> int option
(** A whole decimal integer, [-?digits], that fits an [int]. *)

val float : string -> float option
(** A whole finite number of the grammar above. *)

val float_to_string : float -> string
(** [%.12g] when that text reads back as the same float, else [%.17g]:
    [float (float_to_string x) = Some x], bit for bit, for finite [x]. *)

val token : string -> string
(** The part trimmed and case-folded: how every spec word is compared. *)

val parts : ?keep_case:bool -> char -> string -> string list
(** [parts sep s] splits [s] at every [sep] and trims each part; parts
    are case-folded unless [keep_case] (Unix paths, fault-point names).
    An empty part stays in the list, for the parser to refuse. *)

val after : string -> string -> string option
(** [after prefix s] is the rest of [s] when [s] starts with [prefix]. *)

val all : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [all read parts] reads every part in order; the first error wins. *)
