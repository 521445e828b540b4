type t = { rows : int; cols : int }

let create ~rows ~cols =
  if rows <= 0 then
    invalid_arg (Printf.sprintf "Hex.create: rows must be positive, got %d" rows)
  else if cols <= 0 then
    invalid_arg (Printf.sprintf "Hex.create: cols must be positive, got %d" cols)
  else { rows; cols }

let cells t = t.rows * t.cols

let index t ~row ~col =
  if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
    invalid_arg "Hex.index: out of bounds"
  else (row * t.cols) + col

let coords t cell =
  if cell < 0 || cell >= cells t then invalid_arg "Hex.coords: out of bounds"
  else cell / t.cols, cell mod t.cols

(* Odd-r offset layout: odd rows shift right by half a hex. The six
   positions around a cell as (row, column) offsets, in ascending cell
   order: the row above, the cell's own row, the row below, each left to
   right. *)
let row_offsets = [| -1; -1; 0; 0; 1; 1 |]
let even_col_offsets = [| -1; 0; -1; 1; -1; 0 |]
let odd_col_offsets = [| 0; 1; -1; 1; 0; 1 |]

let neighbors_into t cell buf =
  if cell < 0 || cell >= cells t then
    invalid_arg "Hex.neighbors_into: out of bounds";
  let row = cell / t.cols in
  let col = cell - (row * t.cols) in
  let col_offsets = if row land 1 = 0 then even_col_offsets else odd_col_offsets in
  let count = ref 0 in
  for k = 0 to 5 do
    let r = row + row_offsets.(k) and c = col + col_offsets.(k) in
    if r >= 0 && r < t.rows && c >= 0 && c < t.cols then begin
      buf.(!count) <- (r * t.cols) + c;
      incr count
    end
  done;
  !count

let neighbors t cell =
  let buf = Array.make 6 0 in
  List.init (neighbors_into t cell buf) (Array.get buf)

(* Convert odd-r offset to cube coordinates for distance. *)
let to_cube row col =
  let x = col - ((row - (row land 1)) / 2) in
  let z = row in
  let y = -x - z in
  x, y, z

let distance t a b =
  let ra, ca = coords t a and rb, cb = coords t b in
  let xa, ya, za = to_cube ra ca and xb, yb, zb = to_cube rb cb in
  (abs (xa - xb) + abs (ya - yb) + abs (za - zb)) / 2

(* Row r of the disk: in cube coordinates a cell at row offset dz and
   x offset dx is within the radius iff |dz|, |dx| and |dx + dz| all are,
   so each row holds one run of columns. Rows and columns ascend, so the
   list is in ascending cell order; it is built back to front. *)
let disk t center ~radius =
  if radius < 0 then invalid_arg "Hex.disk: negative radius"
  else begin
    let r0, c0 = coords t center in
    let x0 = c0 - (r0 asr 1) in
    let acc = ref [] and last = Int.min (t.rows - 1) (r0 + radius) in
    for r = last downto Int.max 0 (r0 - radius) do
      let dz = r - r0 in
      let shift = x0 + (r asr 1) in
      let lo = Int.max 0 (shift + Int.max (-radius) (-radius - dz)) in
      let hi = Int.min (t.cols - 1) (shift + Int.min radius (radius - dz)) in
      for col = hi downto lo do
        acc := ((r * t.cols) + col) :: !acc
      done
    done;
    !acc
  end
