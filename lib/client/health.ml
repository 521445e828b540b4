(* Per-endpoint health for failover ordering. Not thread-safe on its
   own: [Client] guards each endpoint's health with that endpoint's
   lock. Scores only order endpoints relative to each other — the
   absolute numbers carry no meaning.

   The shape: an EWMA failure rate dominates, a penalty keeps a
   just-failed endpoint out of the rotation for a few seconds without
   blacklisting it forever (a restarted replica must win traffic back),
   a shedding endpoint sits out a smaller one, a draining endpoint sits
   out a short cooldown, and the latency EWMA breaks ties between two
   healthy replicas. *)

type t = {
  mutable fail_ewma : float;  (* 0 = always succeeds, 1 = always fails *)
  mutable latency_ewma_ms : float;
  mutable last_fail_s : float;
  mutable last_shed_s : float;
  mutable draining_until_s : float;
}

let fail_penalty_window_s = 5.0
let draining_cooldown_s = 2.0
let alpha = 0.2

let create () =
  {
    fail_ewma = 0.0;
    latency_ewma_ms = 0.0;
    last_fail_s = Float.neg_infinity;
    last_shed_s = Float.neg_infinity;
    draining_until_s = Float.neg_infinity;
  }

let note_ok t ~latency_ms =
  t.fail_ewma <- (1.0 -. alpha) *. t.fail_ewma;
  t.latency_ewma_ms <-
    (if t.latency_ewma_ms <= 0.0 then latency_ms
     else ((1.0 -. alpha) *. t.latency_ewma_ms) +. (alpha *. latency_ms))

let note_fail t ~now_s =
  t.fail_ewma <- ((1.0 -. alpha) *. t.fail_ewma) +. alpha;
  t.last_fail_s <- now_s

(* A draining reject is the daemon promising to go away: stop offering
   it traffic for a cooldown, then probe again (it may have been
   restarted in place). *)
let note_draining t ~now_s =
  t.draining_until_s <- now_s +. draining_cooldown_s;
  t.last_fail_s <- now_s

(* An overload reject proves the endpoint is up and only busy: it
   leaves the failure EWMA alone and costs a penalty smaller than a
   failure's, so a retry moves to another live replica but never back
   to one whose connection just failed. *)
let note_shed t ~now_s = t.last_shed_s <- now_s

let score t ~now_s =
  (* 1 at [last], falling linearly to 0 over the window *)
  let fresh last =
    Float.max 0.0 (1.0 -. ((now_s -. last) /. fail_penalty_window_s))
  in
  (* a failure within the window outscores anything a live endpoint
     reaches: failure EWMA <= 1_000, shedding <= 1_000 *)
  let failed =
    let f = fresh t.last_fail_s in
    if f > 0.0 then 10_000.0 +. (2_000.0 *. f) else 0.0
  in
  let draining = if now_s < t.draining_until_s then 10_000.0 else 0.0 in
  (t.fail_ewma *. 1_000.0) +. failed +. (1_000.0 *. fresh t.last_shed_s)
  +. draining +. t.latency_ewma_ms
