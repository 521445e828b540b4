type retry =
  | No_retry
  | Repeat of { cycles : int; backoff : int }
  | Escalate of { after : int; to_blanket : bool }

type t = {
  page_loss : float;
  detect_q : float;
  outage_rate : float;
  outage_repair : float;
  report_loss : float;
  report_delay : float;
  retry : retry;
}

let none =
  {
    page_loss = 0.0;
    detect_q = 1.0;
    outage_rate = 0.0;
    outage_repair = 0.0;
    report_loss = 0.0;
    report_delay = 0.0;
    retry = No_retry;
  }

let is_clean t =
  t.page_loss <= 0.0
  && t.detect_q >= 1.0
  && t.outage_rate <= 0.0
  && t.report_loss <= 0.0
  && t.report_delay <= 0.0

let in_unit_co x = Float.is_finite x && x >= 0.0 && x < 1.0
let nonneg x = Float.is_finite x && x >= 0.0

let validate t =
  if not (in_unit_co t.page_loss) then Error "page_loss must be in [0, 1)"
  else if
    not (Float.is_finite t.detect_q && t.detect_q > 0.0 && t.detect_q <= 1.0)
  then Error "detect_q must be in (0, 1]"
  else if not (nonneg t.outage_rate) then Error "outage_rate must be >= 0"
  else if not (nonneg t.outage_repair) then Error "outage_repair must be >= 0"
  else if not (in_unit_co t.report_loss) then
    Error "report_loss must be in [0, 1)"
  else if not (nonneg t.report_delay) then Error "report_delay must be >= 0"
  else
    match t.retry with
    | No_retry -> Ok ()
    | Repeat { cycles; backoff } ->
      if cycles < 1 then Error "Repeat cycles must be >= 1"
      else if backoff < 0 then Error "Repeat backoff must be >= 0"
      else Ok ()
    | Escalate { after; to_blanket = _ } ->
      if after < 0 then Error "Escalate after must be >= 0" else Ok ()

let retry_to_string = function
  | No_retry -> "none"
  | Repeat { cycles; backoff } ->
    if backoff = 0 then Printf.sprintf "repeat:%d" cycles
    else Printf.sprintf "repeat:%d:%d" cycles backoff
  | Escalate { after; to_blanket } ->
    Printf.sprintf "escalate:%d:%s" after
      (if to_blanket then "blanket" else "universe")

let retry_of_string s =
  let int = Wire.Spec.int in
  match Wire.Spec.parts ':' s with
  | [ "none" ] | [ "no-retry" ] -> Ok No_retry
  | [ "repeat"; c ] | [ "repeat"; c; "0" ] ->
    (match int c with
     | Some cycles when cycles >= 1 -> Ok (Repeat { cycles; backoff = 0 })
     | _ -> Error "repeat cycles must be an integer >= 1")
  | [ "repeat"; c; b ] ->
    (match (int c, int b) with
     | Some cycles, Some backoff when cycles >= 1 && backoff >= 0 ->
       Ok (Repeat { cycles; backoff })
     | _ -> Error "repeat takes cycles >= 1 and backoff >= 0")
  | "escalate" :: rest ->
    let escalate a to_blanket =
      match int a with
      | Some after when after >= 0 -> Ok (Escalate { after; to_blanket })
      | _ -> Error "escalate after must be an integer >= 0"
    in
    (match rest with
     | [ a ] | [ a; "blanket" ] -> escalate a true
     | [ a; "universe" ] -> escalate a false
     | _ -> Error "escalate target must be blanket or universe")
  | _ ->
    Error
      "retry must be none | repeat:<cycles>[:<backoff>] | \
       escalate:<after>[:blanket|universe]"

let to_string t =
  Printf.sprintf
    "page-loss %.3g, q %.3g, outage %.3g/%.3g, report-loss %.3g, \
     report-delay %.3g, retry %s"
    t.page_loss t.detect_q t.outage_rate t.outage_repair t.report_loss
    t.report_delay (retry_to_string t.retry)

module Outage = struct
  type state = { up : bool array; mutable failures : int }

  let create ~cells =
    if cells <= 0 then invalid_arg "Faults.Outage.create: no cells"
    else { up = Array.make cells true; failures = 0 }

  let down state cell = not state.up.(cell)
  let failures state = state.failures

  let step state faults rng =
    if faults.outage_rate > 0.0 then begin
      let p_fail = 1.0 -. exp (-.faults.outage_rate) in
      let p_repair =
        if faults.outage_repair <= 0.0 then 1.0
        else 1.0 -. exp (-1.0 /. faults.outage_repair)
      in
      Array.iteri
        (fun cell up ->
          if up then begin
            if Prob.Rng.unit_float rng < p_fail then begin
              state.up.(cell) <- false;
              state.failures <- state.failures + 1
            end
          end
          else if p_repair >= 1.0 || Prob.Rng.unit_float rng < p_repair then
            state.up.(cell) <- true)
        state.up
    end
end
