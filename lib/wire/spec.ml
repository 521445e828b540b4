let is_digit c = c >= '0' && c <= '9'

let scan s i =
  let n = String.length s in
  let digits i =
    let j = ref i in
    while !j < n && is_digit s.[!j] do incr j done;
    if !j = i then Error i else Ok !j
  in
  let ( let* ) = Result.bind in
  let* j = digits (if i < n && s.[i] = '-' then i + 1 else i) in
  let* j = if j < n && s.[j] = '.' then digits (j + 1) else Ok j in
  if j < n && (s.[j] = 'e' || s.[j] = 'E') then
    let signed = j + 1 < n && (s.[j + 1] = '+' || s.[j + 1] = '-') in
    digits (if signed then j + 2 else j + 1)
  else Ok j

let whole s = scan s 0 = Ok (String.length s)

let int s =
  let n = String.length s in
  let digits = if n > 0 && s.[0] = '-' then String.sub s 1 (n - 1) else s in
  if digits <> "" && String.for_all is_digit digits then int_of_string_opt s
  else None

let float s =
  let x = if whole s then float_of_string s else Float.nan in
  if Float.is_finite x then Some x else None

let float_to_string x =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let token s = String.lowercase_ascii (String.trim s)

let parts ?(keep_case = false) sep s =
  List.map
    (if keep_case then String.trim else token)
    (String.split_on_char sep s)

let after prefix s =
  if String.starts_with ~prefix s then
    let k = String.length prefix in
    Some (String.sub s k (String.length s - k))
  else None

let all read parts =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> Result.bind (read p) (fun v -> go (v :: acc) rest)
  in
  go [] parts
