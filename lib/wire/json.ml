type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------- printer ---------------- *)

(* Escapes go straight into the output buffer; the runs between them
   are copied whole. *)
let add_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

(* A finite number prints as [Spec.float_to_string] writes it, so every
   number round-trips bit for bit; a non-finite one prints as a quoted
   [%h] string. An integral value below 10^12 in magnitude (other than
   -0) prints the same text, its [string_of_int] digits, written
   straight into the buffer: several times cheaper than [Printf], and
   strategies are arrays of cell indices. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.chr (48 + (n mod 10)))

let add_num buf x =
  if
    Float.is_integer x && Float.abs x < 1e12
    && not (x = 0.0 && Float.sign_bit x)
  then begin
    if x < 0.0 then Buffer.add_char buf '-';
    add_nat buf (int_of_float (Float.abs x))
  end
  else if Float.is_finite x then Buffer.add_string buf (Spec.float_to_string x)
  else begin
    Buffer.add_char buf '"';
    add_escaped buf (Printf.sprintf "%h" x);
    Buffer.add_char buf '"'
  end

let add_str buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> add_str buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    write_members buf fields;
    Buffer.add_char buf '}'

and write_members buf fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      add_str buf k;
      Buffer.add_string buf ": ";
      write buf v)
    fields

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let members_to_string fields =
  let buf = Buffer.create 256 in
  write_members buf fields;
  Buffer.contents buf

(* ---------------- builders ---------------- *)

let int n = Num (float_of_int n)

let int_rows rows =
  let ints row = Arr (Array.fold_right (fun x l -> int x :: l) row []) in
  Arr (Array.fold_right (fun row l -> ints row :: l) rows [])

(* ---------------- parser ---------------- *)

exception Fail of string

let parse ?(max_depth = 64) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  (* UTF-8 encode one scalar value; lone surrogates become U+FFFD so the
     parser stays total on adversarial input. *)
  let add_scalar buf u =
    let u = if u >= 0xD800 && u <= 0xDFFF then 0xFFFD else u in
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "truncated escape"
         else
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
             advance ();
             let u = hex4 () in
             (* Combine a valid surrogate pair; anything else falls
                through [add_scalar]'s U+FFFD replacement. *)
             if
               u >= 0xD800 && u <= 0xDBFF
               && !pos + 2 <= n
               && s.[!pos] = '\\'
               && !pos + 1 < n
               && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo >= 0xDC00 && lo <= 0xDFFF then
                 add_scalar buf
                   (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
               else begin
                 add_scalar buf u;
                 add_scalar buf lo
               end
             end
             else add_scalar buf u
           | _ -> fail "unknown escape");
        go ()
      | c ->
        (* Lenient: raw control bytes and non-UTF8 bytes pass through —
           totality over strictness at the network boundary. *)
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    match Spec.scan s !pos with
    | Error at -> pos := at; fail "expected digit"
    | Ok stop ->
      let x = float_of_string (String.sub s !pos (stop - !pos)) in
      if not (Float.is_finite x) then fail "number overflows a float";
      pos := stop;
      Num x
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg
  (* Belt and braces: the parser is meant to be total by construction,
     but a bug here must surface as a parse error, not kill a
     connection loop. *)
  | exception e -> Error ("parser exception: " ^ Printexc.to_string e)

(* ---------------- accessors ---------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 1e15 ->
    Some (int_of_float x)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
