type policy = Area | Movement of int | Distance of int | Time of int

type state = {
  mutable last_cell : int;  (* cell of the last report *)
  mutable moves : int;  (* cell changes since the last report *)
  mutable report_time : float;  (* when the last report happened *)
  mutable ticks : int;  (* ticks since the last report *)
}

let validate = function
  | Area -> Ok ()
  | Movement k | Distance k | Time k ->
    if k >= 1 then Ok () else Error "reporting parameter must be >= 1"

let init policy ~cell ~now =
  (match validate policy with
   | Ok () -> ()
   | Error reason -> invalid_arg ("Reporting.init: " ^ reason));
  { last_cell = cell; moves = 0; report_time = now; ticks = 0 }

let last_reported_cell state = state.last_cell
let ticks_since_report state = state.ticks

let reset state ~cell ~now =
  state.last_cell <- cell;
  state.moves <- 0;
  state.report_time <- now;
  state.ticks <- 0

let on_move policy ~areas ~hex state ~from_cell ~to_cell ~now =
  state.ticks <- state.ticks + 1;
  if to_cell <> from_cell then state.moves <- state.moves + 1;
  let report =
    match policy with
    | Area ->
      to_cell <> from_cell
      && Location_area.crossing areas ~from_cell ~to_cell
    | Movement k -> state.moves >= k
    | Distance k -> Hex.distance hex state.last_cell to_cell >= k
    | Time k -> state.ticks >= k
  in
  if report then reset state ~cell:to_cell ~now;
  report

let observe_page state ~cell ~now = reset state ~cell ~now

let snapshot state =
  {
    last_cell = state.last_cell;
    moves = state.moves;
    report_time = state.report_time;
    ticks = state.ticks;
  }

let rollback state ~snapshot ~moved =
  state.last_cell <- snapshot.last_cell;
  state.report_time <- snapshot.report_time;
  state.ticks <- snapshot.ticks + 1;
  state.moves <- (snapshot.moves + if moved then 1 else 0)

let uncertainty policy ~areas ~hex state ~now =
  ignore now;
  match policy with
  | Area ->
    Location_area.cells_of_area areas (Location_area.area_of areas state.last_cell)
  | Movement _ ->
    Array.of_list (Hex.disk hex state.last_cell ~radius:state.moves)
  | Distance k ->
    Array.of_list (Hex.disk hex state.last_cell ~radius:(k - 1))
  | Time _ ->
    Array.of_list (Hex.disk hex state.last_cell ~radius:state.ticks)

let to_string = function
  | Area -> "area"
  | Movement k -> Printf.sprintf "movement-%d" k
  | Distance k -> Printf.sprintf "distance-%d" k
  | Time k -> Printf.sprintf "time-%d" k

let of_string s =
  let with_k policy n = Option.map policy (Wire.Spec.int n) in
  let policy =
    match Wire.Spec.parts '-' s with
    | [ "area" ] -> Some Area
    | [ ("movement" | "move"); n ] -> with_k (fun k -> Movement k) n
    | [ ("distance" | "dist"); n ] -> with_k (fun k -> Distance k) n
    | [ "time"; n ] -> with_k (fun k -> Time k) n
    | _ -> None
  in
  match policy with
  | Some p when validate p = Ok () -> Ok p
  | _ -> Error "reporting must be area | movement-<k> | distance-<k> | time-<k>"
