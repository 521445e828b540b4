type 'a entry = { priority : float; payload : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.data.(i).priority < t.data.(parent).priority then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.data.(l).priority < t.data.(!smallest).priority then
    smallest := l;
  if r < t.size && t.data.(r).priority < t.data.(!smallest).priority then
    smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority payload =
  let entry = { priority; payload } in
  if t.size = Array.length t.data then begin
    let capacity = Stdlib.max 16 (2 * Array.length t.data) in
    let data = Array.make capacity entry in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.priority, top.payload)
  end

let peek t =
  if t.size = 0 then None
  else Some (t.data.(0).priority, t.data.(0).payload)
