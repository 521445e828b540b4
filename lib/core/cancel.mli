(** Cooperative cancellation for the solver hot loops.

    The exact methods (the prefix-chain DP, branch and bound, the
    adaptive DPs) are exponential; a production paging controller must be
    able to abandon them mid-search and fall back to the always-fast §4
    heuristic. A {!t} is a token the solver loops poll via {!check};
    when the token fires, {!Cancelled} unwinds the search. Polling cost
    is amortized: the underlying probe (typically a clock read) runs only
    every [every] checks, so a check is a couple of integer ops on the
    fast path.

    Tokens are single-use and not thread-safe — create one per run.
    {!never} is the exception: it holds no state, so any number of
    domains may poll it at once. *)

type t

(** Raised by {!check} once the token has fired. *)
exception Cancelled

(** A token that never fires (the default for direct solver calls).
    Polling it writes nothing. *)
val never : t

(** [of_probe ?every probe] fires once [probe ()] returns [true]; the
    probe runs every [every] checks (default 256).
    @raise Invalid_argument when [every < 1]. *)
val of_probe : ?every:int -> (unit -> bool) -> t

(** [deadline ?every ?clock t] fires when [clock ()] passes the absolute
    time [t] (seconds on [clock]'s scale; default {!Obs.now}). *)
val deadline : ?every:int -> ?clock:(unit -> float) -> float -> t

(** [check t] raises {!Cancelled} when the token has fired (and keeps
    raising on every later call); otherwise returns. Solvers call this
    inside their innermost practical loop. *)
val check : t -> unit

(** [poll t] is the non-raising form of {!check}: probes (amortized) and
    returns whether the token has fired. For anytime solvers that stop
    gracefully with their best-so-far instead of unwinding. *)
val poll : t -> bool

(** [cancelled t] is [true] once the token has fired, without probing. *)
val cancelled : t -> bool
