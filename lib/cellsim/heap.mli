(** Binary min-heap keyed by float priority; backbone of the
    discrete-event engine. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

(** [push t ~priority payload] inserts in O(log n). *)
val push : 'a t -> priority:float -> 'a -> unit

(** [pop t] removes and returns the minimum-priority entry. *)
val pop : 'a t -> (float * 'a) option

(** [peek t] returns the minimum without removing it. *)
val peek : 'a t -> (float * 'a) option
