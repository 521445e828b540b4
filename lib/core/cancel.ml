exception Cancelled

(* [Never] is a constant: polling it reads nothing and writes nothing,
   so every domain can share it. Only a [Token] counts down. *)
type t =
  | Never
  | Token of {
      probe : unit -> bool;
      every : int;
      mutable countdown : int;
      mutable fired : bool;
    }

let never = Never

let of_probe ?(every = 256) probe =
  if every < 1 then invalid_arg "Cancel.of_probe: every must be >= 1"
  else Token { probe; every; countdown = every; fired = false }

let deadline ?every ?(clock = Obs.now) t = of_probe ?every (fun () -> clock () >= t)

let budget_ms ?every ?(clock = Obs.now) ms =
  deadline ?every ~clock (clock () +. (ms /. 1000.0))

let poll = function
  | Never -> false
  | Token t ->
    if t.fired then true
    else begin
      t.countdown <- t.countdown - 1;
      if t.countdown <= 0 then begin
        t.countdown <- t.every;
        if t.probe () then t.fired <- true
      end;
      t.fired
    end

let check t = if poll t then raise Cancelled
let cancelled = function Never -> false | Token t -> t.fired
