(* Fuzz smoke test for the two text-format entry points: the instance
   parser and the journal loader. Random bytes and mutated-valid inputs
   must either parse or raise the documented [Invalid_argument] — never
   escape with [Failure], [Scanf.Scan_failure], [Not_found], an index
   error or a crash.

   Case count is bounded so the suite stays fast; CI's fuzz-smoke job
   raises it via the [FUZZ_CASES] environment variable. *)

open Confcall

let cases =
  match Sys.getenv_opt "FUZZ_CASES" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 500)
  | None -> 500

let escape s =
  let s = if String.length s > 120 then String.sub s 0 120 ^ "..." else s in
  String.to_seq s
  |> Seq.map (fun c ->
         if c >= ' ' && c <= '~' then String.make 1 c
         else Printf.sprintf "\\x%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

(* feed [input] to [f]; only success or Invalid_argument may come back *)
let expect_named_error ~what ~seed f input =
  match f input with
  | _ -> ()
  | exception Invalid_argument _ -> ()
  | exception e ->
    Alcotest.failf "%s (seed %d) escaped with %s on %S"
      what seed (Printexc.to_string e) (escape input)

let random_bytes rng len =
  String.init len (fun _ -> Char.chr (Prob.Rng.int rng 256))

(* mostly-printable garbage with structural characters the parsers care
   about: digits, dots, separators, tabs, newlines *)
let random_texty rng len =
  let alphabet = "0123456789.eE+- \t\n\r;|/aZ\x00" in
  String.init len (fun _ ->
      alphabet.[Prob.Rng.int rng (String.length alphabet)])

(* random point mutation of a valid serialization: byte flip, deletion,
   insertion, truncation, or a duplicated chunk *)
let mutate rng s =
  let n = String.length s in
  if n = 0 then s
  else
    match Prob.Rng.int rng 5 with
    | 0 ->
      let i = Prob.Rng.int rng n in
      String.mapi
        (fun j c -> if j = i then Char.chr (Prob.Rng.int rng 256) else c)
        s
    | 1 ->
      let i = Prob.Rng.int rng n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 2 ->
      let i = Prob.Rng.int rng n in
      String.sub s 0 i
      ^ String.make 1 (Char.chr (Prob.Rng.int rng 256))
      ^ String.sub s i (n - i)
    | 3 -> String.sub s 0 (Prob.Rng.int rng n)
    | _ ->
      let i = Prob.Rng.int rng n in
      let len = min (n - i) (1 + Prob.Rng.int rng 40) in
      s ^ String.sub s i len

let mutate_n rng s =
  let rec go k s = if k = 0 then s else go (k - 1) (mutate rng s) in
  go (1 + Prob.Rng.int rng 3) s

(* -------------------- instance parser -------------------- *)

let valid_instance_string rng =
  let m = 1 + Prob.Rng.int rng 4 and c = 1 + Prob.Rng.int rng 8 in
  let d = 1 + Prob.Rng.int rng c in
  Instance.to_string (Instance.random_uniform_simplex rng ~m ~c ~d)

let test_instance_fuzz () =
  let rng = Prob.Rng.create ~seed:0xF0220 in
  for case = 1 to cases do
    let input =
      match case mod 4 with
      | 0 -> random_bytes rng (Prob.Rng.int rng 200)
      | 1 -> random_texty rng (Prob.Rng.int rng 200)
      | _ -> mutate_n rng (valid_instance_string rng)
    in
    expect_named_error ~what:"Instance.of_string" ~seed:case
      Instance.of_string input
  done;
  (* sanity: the unmutated serialization still round-trips *)
  let s = valid_instance_string rng in
  let roundtrip = Instance.to_string (Instance.of_string s) in
  Alcotest.(check string) "roundtrip" s roundtrip

(* -------------------- parser → flat arena boundary -------------------- *)

(* Whatever survives the parser must be safe to feed the flat hot path:
   one shared arena rebound across every surviving mutant (so stale
   cached tables from the previous mutant are in scope each time), and
   the flat EP must stay bit-identical to the reference list DP over the
   weight order. Only the documented [Invalid_argument] may escape
   either path — and the two paths must agree on whether they reject. *)
let test_flat_arena_fuzz () =
  let rng = Prob.Rng.create ~seed:0xF0223 in
  let arena = Flat.create () in
  for case = 1 to cases do
    let input =
      match case mod 3 with
      | 0 -> random_texty rng (Prob.Rng.int rng 200)
      | _ -> mutate_n rng (valid_instance_string rng)
    in
    match Instance.of_string input with
    | exception Invalid_argument _ -> ()
    | exception e ->
      Alcotest.failf "Instance.of_string (seed %d) escaped with %s on %S" case
        (Printexc.to_string e) (escape input)
    | inst ->
      let reference =
        match Order_dp.solve inst ~order:(Instance.weight_order inst) with
        | o -> Ok o
        | exception Invalid_argument msg -> Error msg
      in
      let flat =
        match Solver.solve ~arena Solver.Greedy inst with
        | o -> Ok o
        | exception Invalid_argument msg -> Error msg
        | exception e ->
          Alcotest.failf "flat greedy (seed %d) escaped with %s on %S" case
            (Printexc.to_string e) (escape input)
      in
      (match (reference, flat) with
       | Ok l, Ok f ->
         if l.Strategy.expected_paging <> f.Solver.expected_paging then
           Alcotest.failf
             "flat/reference EP diverge (seed %d): %.17g vs %.17g on %S" case
             l.Strategy.expected_paging f.Solver.expected_paging (escape input)
       | Error _, Error _ -> ()
       | Ok _, Error msg ->
         Alcotest.failf "flat rejects what the reference accepts (seed %d): %s"
           case msg
       | Error msg, Ok _ ->
         Alcotest.failf "flat accepts what the reference rejects (seed %d): %s"
           case msg)
  done

(* -------------------- journal loader -------------------- *)

let valid_journal_string rng =
  let n = Prob.Rng.int rng 6 in
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "item-%d\tpayload %d\n" i (Prob.Rng.int rng 1000)))

let test_journal_fuzz () =
  let rng = Prob.Rng.create ~seed:0xF0221 in
  let path = Filename.temp_file "confcall_fuzz" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       for case = 1 to cases do
         let content =
           match case mod 4 with
           | 0 -> random_bytes rng (Prob.Rng.int rng 300)
           | 1 -> random_texty rng (Prob.Rng.int rng 300)
           | _ -> mutate_n rng (valid_journal_string rng)
         in
         let oc = open_out_bin path in
         output_string oc content;
         close_out oc;
         (match Journal.load_or_create path with
          | j ->
            (* a successful load must be self-consistent and reloadable *)
            let n = Journal.count j in
            Journal.close j;
            (match Journal.load_or_create path with
             | j2 ->
               if Journal.count j2 <> n then
                 Alcotest.failf
                   "journal reload changed count (%d -> %d) on %S" n
                   (Journal.count j2) (escape content);
               Journal.close j2
             | exception Invalid_argument _ ->
               Alcotest.failf "journal loaded then refused reload on %S"
                 (escape content))
          | exception Invalid_argument _ -> ()
          | exception e ->
            Alcotest.failf "Journal.load_or_create (case %d) escaped with %s on %S"
              case (Printexc.to_string e) (escape content))
       done)

(* -------------------- serve protocol -------------------- *)

(* The daemon's parse path must be total: any byte string into
   [Wire.Json.parse] or [Wire.Proto.decode] returns a result — no
   exception of any kind may escape (the connection loop relies on
   this to turn bad frames into ["error"] responses). *)

let valid_frame_string rng =
  let inst = valid_instance_string rng in
  match Prob.Rng.int rng 4 with
  | 0 ->
    Printf.sprintf "{\"id\": \"f%d\", \"op\": \"health\"}"
      (Prob.Rng.int rng 1000)
  | 1 ->
    Printf.sprintf
      "{\"id\": \"f%d\", \"op\": \"simulate\", \"scenario\": \"suburb\", \
       \"seed\": %d}"
      (Prob.Rng.int rng 1000) (Prob.Rng.int rng 100)
  | 2 ->
    Wire.Json.to_string
      (Wire.Json.Obj
         [ ("id", Wire.Json.Str (Printf.sprintf "f%d" (Prob.Rng.int rng 1000)));
           ("op", Wire.Json.Str "solve");
           ("instance", Wire.Json.Str inst);
           ("budget_ms", Wire.Json.Num (1.0 +. Prob.Rng.unit_float rng));
         ])
  | _ ->
    Wire.Json.to_string
      (Wire.Json.Obj
         [ ("id", Wire.Json.Str (Printf.sprintf "f%d" (Prob.Rng.int rng 1000)));
           ("op", Wire.Json.Str "solve");
           ("instance", Wire.Json.Str inst);
           ("solver", Wire.Json.Str "greedy");
           ("cache", Wire.Json.Bool false);
         ])

let test_protocol_fuzz () =
  let rng = Prob.Rng.create ~seed:0xF0222 in
  for case = 1 to cases do
    let input =
      match case mod 4 with
      | 0 -> random_bytes rng (Prob.Rng.int rng 400)
      | 1 -> random_texty rng (Prob.Rng.int rng 400)
      | _ -> mutate_n rng (valid_frame_string rng)
    in
    (match Wire.Json.parse input with
     | Ok j ->
       (* whatever parses must re-emit to a reparseable equal value *)
       let s = Wire.Json.to_string j in
       (match Wire.Json.parse s with
        | Ok j2 when j2 = j -> ()
        | Ok _ ->
          Alcotest.failf "Json print/reparse not fixed-point on %S"
            (escape input)
        | Error e ->
          Alcotest.failf "Json emitted unparseable %S (%s) from %S"
            (escape s) e (escape input))
     | Error _ -> ()
     | exception e ->
       Alcotest.failf "Json.parse (case %d) escaped with %s on %S" case
         (Printexc.to_string e) (escape input));
    match Wire.Proto.decode input with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "Proto.decode (case %d) escaped with %s on %S" case
        (Printexc.to_string e) (escape input)
  done

(* Live end of the same property: garbage frames over a real socket
   each draw a structured [error] response, the connection survives
   them all, and a well-formed frame afterwards still answers. *)
let test_connection_survives_garbage () =
  let rng = Prob.Rng.create ~seed:0xF0223 in
  let cfg =
    {
      (Serve.Server.default_config (Serve.Server.Tcp 0)) with
      domains = 1;
      max_frame_bytes = 2048;
      quiet = true;
    }
  in
  let h = Serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      if not (Serve.Server.stop h) then Alcotest.fail "server did not drain")
  @@ fun () ->
  let port = Option.get (Serve.Server.bound_port h) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let send s =
    let s = s ^ "\n" in
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring fd s off (String.length s - off))
    in
    go 0
  in
  let sanitize s =
    String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s
  in
  let n = max 20 (cases / 10) in
  for case = 1 to n do
    let line =
      match case mod 4 with
      | 0 -> sanitize (random_bytes rng (1 + Prob.Rng.int rng 300))
      | 1 -> sanitize (random_texty rng (1 + Prob.Rng.int rng 300))
      | 2 -> String.make (3000 + Prob.Rng.int rng 2000) 'x' (* oversized *)
      | _ -> sanitize (mutate_n rng (valid_frame_string rng))
    in
    send line
  done;
  send "{\"id\": \"fuzz-done\", \"op\": \"health\"}";
  (* read lines until the health answer; every line must be JSON *)
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let done_ = ref false in
  while (not !done_) && Unix.gettimeofday () < deadline do
    (match Unix.select [ fd ] [] [] 0.1 with
     | [], _, _ -> ()
     | _ -> (
       match Unix.read fd chunk 0 4096 with
       | 0 -> Alcotest.fail "daemon closed the connection on garbage"
       | r -> Buffer.add_subbytes buf chunk 0 r
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
    let s = Buffer.contents buf in
    let rec eat start =
      match String.index_from_opt s start '\n' with
      | None ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s start (String.length s - start))
      | Some i ->
        let line = String.sub s start (i - start) in
        (match Wire.Json.parse line with
         | Ok j ->
           if
             Option.bind (Wire.Json.member "id" j) Wire.Json.to_str
             = Some "fuzz-done"
           then done_ := true
         | Error e ->
           Alcotest.failf "daemon emitted non-JSON line %S (%s)"
             (escape line) e);
        eat (i + 1)
    in
    eat 0
  done;
  if not !done_ then Alcotest.fail "health after garbage never answered"

(* -------------------- JSON printer contracts -------------------- *)

module J = Wire.Json

(* A random integer below 10^12 in magnitude, spread over every digit
   count, plus the edges. *)
let random_int12 rng =
  match Prob.Rng.int rng 8 with
  | 0 -> Prob.Rng.choose rng [| 0; 1; -1; 999_999_999_999; -999_999_999_999 |]
  | _ ->
    let digits = 1 + Prob.Rng.int rng 12 in
    let n = Prob.Rng.int rng (int_of_float (10.0 ** float_of_int digits)) in
    if Prob.Rng.bool rng then n else -n

let random_float rng =
  match Prob.Rng.int rng 6 with
  | 0 -> float_of_int (random_int12 rng)
  | 1 -> Int64.float_of_bits (Prob.Rng.bits64 rng)
  | 2 -> Prob.Rng.choose rng [| nan; infinity; neg_infinity; -0.0; 1e12; -1e12 |]
  | 3 -> float_of_int (random_int12 rng) *. 1e6 (* integral, >= 10^12 *)
  | 4 -> Prob.Rng.normal rng *. 1000.0
  | _ -> float_of_int (random_int12 rng) /. 100.0

let random_string rng =
  let len = Prob.Rng.int rng 24 in
  String.init len (fun _ ->
      match Prob.Rng.int rng 4 with
      | 0 -> Char.chr (Prob.Rng.int rng 0x20) (* raw control bytes *)
      | 1 -> Char.chr (0x80 + Prob.Rng.int rng 0x80) (* high bytes *)
      | 2 -> Prob.Rng.choose rng [| '"'; '\\'; '/'; '\x7f' |]
      | _ -> Char.chr (0x20 + Prob.Rng.int rng 0x5f))

let rec random_json rng depth =
  match Prob.Rng.int rng (if depth >= 6 then 4 else 6) with
  | 0 -> J.Null
  | 1 -> J.Bool (Prob.Rng.bool rng)
  | 2 -> J.Num (random_float rng)
  | 3 -> J.Str (random_string rng)
  | 4 ->
    J.Arr (List.init (Prob.Rng.int rng 5) (fun _ -> random_json rng (depth + 1)))
  | _ ->
    J.Obj
      (List.init (Prob.Rng.int rng 5) (fun _ ->
           (random_string rng, random_json rng (depth + 1))))

(* Print, parse, print is the identity: a printed document (a cached
   body, a daemon line re-printed by `confcall call --json`) can be
   parsed and printed again without changing a byte. *)
let test_print_parse_print () =
  let rng = Prob.Rng.create ~seed:0x150 in
  for case = 1 to cases * 4 do
    let s = J.to_string (random_json rng 0) in
    match J.parse s with
    | Ok v ->
      let s' = J.to_string v in
      if s' <> s then
        Alcotest.failf "case %d: print/parse/print changed %S into %S" case
          (escape s) (escape s')
    | Error e -> Alcotest.failf "case %d: printed %S does not parse: %s" case (escape s) e
  done

(* An integral number below 10^12 prints as [string_of_int]; every
   other finite number, -0 included, as [%.12g] when that text parses
   back to the same float and as [%.17g] otherwise. Either way a finite
   number parses back bit for bit. *)
let test_number_printing () =
  let rng = Prob.Rng.create ~seed:0x151 in
  for _ = 1 to cases * 20 do
    let n = random_int12 rng in
    Alcotest.(check string)
      (Printf.sprintf "integral %d" n) (string_of_int n)
      (J.to_string (J.Num (float_of_int n)))
  done;
  let check_number x =
    if Float.is_finite x then begin
      let printed = J.to_string (J.Num x) in
      if not (Float.is_integer x && Float.abs x < 1e12) then begin
        let g12 = Printf.sprintf "%.12g" x in
        let expected =
          if float_of_string g12 = x then g12 else Printf.sprintf "%.17g" x
        in
        Alcotest.(check string) (Printf.sprintf "%h" x) expected printed
      end;
      match J.parse printed with
      | Ok (J.Num y) when Int64.bits_of_float y = Int64.bits_of_float x -> ()
      | Ok v ->
        Alcotest.failf "%h printed as %s came back as %s" x printed
          (J.to_string v)
      | Error e -> Alcotest.failf "%h printed as %s: %s" x printed e
    end
  in
  List.iter check_number
    [ -0.0; 1e12; -1e12; 1e12 +. 1.0; 0.5; -0.5; 1e-300; 5e-324; max_float;
      -.max_float; 0x1p53; 0x1p53 -. 1.0; 0x1p53 +. 1.0; Float.succ 0x1p53;
      123456789012.5; 999999999999.5; 0.1; 1e15; 1786000000.123456 ];
  for _ = 1 to cases * 20 do
    check_number (random_float rng);
    check_number (Int64.float_of_bits (Prob.Rng.bits64 rng))
  done

(* -------------------- solve frame encoder -------------------- *)

(* Any positive finite float: the printer keeps every one exact. *)
let rec random_budget rng =
  let x = Float.abs (random_float rng) in
  if Float.is_finite x && x > 0.0 then x else random_budget rng

let random_solve_req rng =
  let opt f = if Prob.Rng.bool rng then Some (f ()) else None in
  let nonempty () = "r" ^ random_string rng in
  {
    Wire.Proto.instance = nonempty ();
    solver = opt (fun () -> random_string rng);
    chain = opt (fun () -> random_string rng);
    budget_ms = opt (fun () -> random_budget rng);
    objective = opt (fun () -> random_string rng);
    cache = Prob.Rng.bool rng;
    request_id = opt nonempty;
  }

(* [Proto.solve_fields] is the inverse of decoding a solve frame. *)
let test_solve_fields_roundtrip () =
  let rng = Prob.Rng.create ~seed:0x152 in
  for case = 1 to cases * 2 do
    let sr = random_solve_req rng in
    let id = "f" ^ random_string rng in
    let line = J.to_string (J.Obj (("id", J.Str id) :: Wire.Proto.solve_fields sr)) in
    match Wire.Proto.decode line with
    | Ok f when f = { Wire.Proto.id; req = Wire.Proto.Solve sr } -> ()
    | Ok _ -> Alcotest.failf "case %d: %S decoded to a different frame" case (escape line)
    | Error (_, e) -> Alcotest.failf "case %d: %S rejected: %s" case (escape line) e
  done

let () =
  Alcotest.run "fuzz"
    [ ( "smoke",
        [ Alcotest.test_case "instance parser" `Quick test_instance_fuzz;
          Alcotest.test_case "parser to flat arena" `Quick
            test_flat_arena_fuzz;
          Alcotest.test_case "journal loader" `Quick test_journal_fuzz;
          Alcotest.test_case "serve protocol parsers" `Quick
            test_protocol_fuzz;
          Alcotest.test_case "connection survives garbage" `Quick
            test_connection_survives_garbage;
        ] );
      ( "printer",
        [ Alcotest.test_case "print, parse, print is the identity" `Quick
            test_print_parse_print;
          Alcotest.test_case "integral numbers print as string_of_int" `Quick
            test_number_printing;
          Alcotest.test_case "solve_fields inverts decode" `Quick
            test_solve_fields_roundtrip;
        ] );
    ]
