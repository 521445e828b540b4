(** Location areas: the GSM MAP / IS-41 balance between reporting and
    paging (§1.1). The cell field is partitioned into areas; users
    report when they cross an area boundary, and a call pages the whole
    last-reported area (the baseline our selective strategies improve
    on). *)

type t = private {
  cells : int;
  area_of : int array;  (** cell → area id *)
  members : int array array;  (** area id → its cells *)
}

(** [create ~cells ~area_of] from an explicit assignment.
    @raise Invalid_argument when ids are not 0..k−1 or some area is
    empty. *)
val create : cells:int -> area_of:int array -> t

(** [grid hex ~block_rows ~block_cols] tiles the hex field with
    rectangular areas of the given block size (edge blocks may be
    smaller), numbered row-major by block.
    @raise Invalid_argument naming the block dimension and its value
    when it is not positive. *)
val grid : Hex.t -> block_rows:int -> block_cols:int -> t

(** [single hex] — one area covering everything (never report, always
    page all). *)
val single : Hex.t -> t

(** [per_cell hex] — every cell its own area (always report, page one
    cell). *)
val per_cell : Hex.t -> t

val areas : t -> int
val area_of : t -> int -> int
val cells_of_area : t -> int -> int array

(** [crossing t ~from_cell ~to_cell] — does this move trigger a report? *)
val crossing : t -> from_cell:int -> to_cell:int -> bool
