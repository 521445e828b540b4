type t = {
  cells : int;
  area_of : int array;
  members : int array array;
}

let create ~cells ~area_of =
  if Array.length area_of <> cells then
    invalid_arg "Location_area.create: assignment length mismatch"
  else begin
    let k = Array.fold_left Stdlib.max (-1) area_of + 1 in
    if k <= 0 then invalid_arg "Location_area.create: no areas"
    else if Array.exists (fun a -> a < 0) area_of then
      invalid_arg "Location_area.create: negative area id"
    else begin
      (* A counting pass sizes each area; a second fills it, cells
         ascending. *)
      let size = Array.make k 0 in
      Array.iter (fun a -> size.(a) <- size.(a) + 1) area_of;
      if Array.exists (fun n -> n = 0) size then
        invalid_arg "Location_area.create: empty area"
      else begin
        let members = Array.map (fun n -> Array.make n 0) size in
        let fill = Array.make k 0 in
        Array.iteri
          (fun cell a ->
            members.(a).(fill.(a)) <- cell;
            fill.(a) <- fill.(a) + 1)
          area_of;
        { cells; area_of = Array.copy area_of; members }
      end
    end
  end

(* Block (row / block_rows, col / block_cols) is area
   [(row / block_rows) * blocks_per_row + col / block_cols]: every block
   holds a cell, so the ids are 0 .. k - 1, ascending in row-major cell
   order. *)
let grid hex ~block_rows ~block_cols =
  if block_rows <= 0 then
    invalid_arg
      (Printf.sprintf "Location_area.grid: block_rows must be positive, got %d"
         block_rows)
  else if block_cols <= 0 then
    invalid_arg
      (Printf.sprintf "Location_area.grid: block_cols must be positive, got %d"
         block_cols)
  else begin
    let blocks_per_row = (hex.Hex.cols + block_cols - 1) / block_cols in
    let area_of =
      Array.init (Hex.cells hex) (fun cell ->
          let row, col = Hex.coords hex cell in
          ((row / block_rows) * blocks_per_row) + (col / block_cols))
    in
    create ~cells:(Hex.cells hex) ~area_of
  end

let single hex =
  create ~cells:(Hex.cells hex) ~area_of:(Array.make (Hex.cells hex) 0)

let per_cell hex =
  create ~cells:(Hex.cells hex)
    ~area_of:(Array.init (Hex.cells hex) (fun j -> j))

let areas t = Array.length t.members
let area_of t cell = t.area_of.(cell)
let cells_of_area t a = Array.copy t.members.(a)
let crossing t ~from_cell ~to_cell = t.area_of.(from_cell) <> t.area_of.(to_cell)
