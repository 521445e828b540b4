(** A rectangular field of hexagonal cells (offset coordinates).

    Base stations tile the plane with hexagons in real deployments; the
    mobility models walk this grid. Cells are indexed 0 … rows·cols − 1
    row-major; odd rows are offset ("odd-r" layout). *)

type t = private { rows : int; cols : int }

(** @raise Invalid_argument on non-positive dimensions. *)
val create : rows:int -> cols:int -> t

val cells : t -> int
val index : t -> row:int -> col:int -> int
val coords : t -> int -> int * int

(** [neighbors t cell] — the up-to-6 adjacent cells. *)
val neighbors : t -> int -> int list

(** [distance t a b] — hex-grid (cube-coordinate) distance. *)
val distance : t -> int -> int -> int

(** [disk t center ~radius] — all cells within the given hex distance,
    including the center. *)
val disk : t -> int -> radius:int -> int list
