exception Injected of string

let env_var = "CONFCALL_CHAOS"
let seed_env_var = "CONFCALL_CHAOS_SEED"

(* One semantic per point; the probing site picks the matching probe
   function ([hit] / [delay] / [short]). Params: milliseconds for delay
   points, write fraction for short points, ignored elsewhere. *)
let catalogue =
  [
    ( "pool.task.crash",
      "worker/caller dies between dequeuing a task and running it \
       (domain death; the task is failed and the domain respawned)" );
    ( "pool.task.delay",
      "task start delayed by param ms (straggler; a budgeted stage's own \
       token still bounds it)" );
    ( "serve.lane.crash",
      "a serve worker lane dies as a job starts (domain death; the pool \
       respawns the lane and the untouched job is re-queued)" );
    ( "journal.append",
      "journal append fails before any byte is written" );
    ( "journal.append.short",
      "journal append writes only a param fraction of the line, then \
       fails (torn line / disk full)" );
    ("journal.fsync", "journal fsync fails after a complete write");
    ("serve.accept", "transient accept failure (absorbed, loop continues)");
    ("serve.read", "transient connection-read failure (absorbed, retried)");
    ("serve.read.delay", "connection read delayed by param ms");
    ( "serve.write",
      "transient connection-write failure (absorbed by the writer, \
       retried)" );
    ("serve.write.delay", "writer delayed by param ms before a chunk");
    ( "cache.store",
      "result-cache store fails (absorbed; the answer is still served)" );
  ]

let default_param point =
  let n = String.length point in
  let has_suffix suf =
    let k = String.length suf in
    n >= k && String.sub point (n - k) k = suf
  in
  if has_suffix ".delay" then 2.0 (* ms *)
  else if has_suffix ".short" then 0.5 (* fraction of the write kept *)
  else 0.0

(* ---------------- state ---------------- *)

(* [key] starts the point's own SplitMix64 stream (from the seed and the
   name) and [probes] numbers its probes: probe k fires iff output k is
   below [prob], whatever the other points draw. *)
type point = {
  prob : float;
  param : float;
  key : int64;
  probes : int Atomic.t;
  count : int Atomic.t;
}

(* Written only by [configure]/[disable] (single-threaded setup), read
   by any domain afterwards: the table itself is immutable once
   [enabled] is set, and the counters are atomics. *)
let table : (string, point) Hashtbl.t = Hashtbl.create 16
let enabled = Atomic.make false
let on () = Atomic.get enabled

let stream_key ~seed name =
  String.fold_left
    (fun z ch -> Prob.Rng.mix (Int64.add z (Int64.of_int (Char.code ch))))
    (Prob.Rng.mix (Int64.of_int seed))
    name

(* ---------------- spec parsing ---------------- *)

let parse spec =
  let spec = String.trim spec in
  if spec = "" then Ok []
  else begin
    let entries = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | raw :: rest -> (
        let raw = String.trim raw in
        match String.index_opt raw '=' with
        | None ->
          Error
            (Printf.sprintf "chaos: entry %S is not point=prob[@param]" raw)
        | Some eq -> (
          let name = String.trim (String.sub raw 0 eq) in
          let rhs = String.sub raw (eq + 1) (String.length raw - eq - 1) in
          let prob_s, param_s =
            match String.index_opt rhs '@' with
            | None -> (String.trim rhs, None)
            | Some at ->
              ( String.trim (String.sub rhs 0 at),
                Some
                  (String.trim
                     (String.sub rhs (at + 1) (String.length rhs - at - 1)))
              )
          in
          match float_of_string_opt prob_s with
          | None ->
            Error (Printf.sprintf "chaos: %s: bad probability %S" name prob_s)
          | Some prob when not (Float.is_finite prob) || prob < 0.0 || prob > 1.0
            ->
            Error
              (Printf.sprintf "chaos: %s: probability must be in [0, 1]" name)
          | Some prob -> (
            let param name =
              match param_s with
              | None -> Ok (default_param name)
              | Some s -> (
                match float_of_string_opt s with
                | Some p when Float.is_finite p && p >= 0.0 -> Ok p
                | Some _ | None ->
                  Error
                    (Printf.sprintf
                       "chaos: %s: param must be a non-negative number, got %S"
                       name s))
            in
            if name = "*" then begin
              let rec expand acc = function
                | [] -> go acc rest
                | (p, _) :: tl -> (
                  match param p with
                  | Ok prm -> expand ((p, prob, prm) :: acc) tl
                  | Error e -> Error e)
              in
              expand acc catalogue
            end
            else if not (List.mem_assoc name catalogue) then
              Error
                (Printf.sprintf "chaos: unknown point %S (known: %s)" name
                   (String.concat " " (List.map fst catalogue)))
            else
              match param name with
              | Ok prm -> go ((name, prob, prm) :: acc) rest
              | Error e -> Error e)))
    in
    go [] entries
  end

(* Only drop the enabled flag: the fired counters stay readable (the
   chaos soak and the CLI's exit summary report them after disarming)
   until the next [configure] replaces the table. *)
let disable () = Atomic.set enabled false

let configure ?(seed = 1) spec =
  match parse spec with
  | Error _ as e -> e
  | Ok entries ->
    Atomic.set enabled false;
    Hashtbl.reset table;
    List.iter
      (fun (name, prob, param) ->
        if prob > 0.0 then
          Hashtbl.replace table name
            { prob; param; key = stream_key ~seed name; probes = Atomic.make 0;
              count = Atomic.make 0 })
      entries;
    if Hashtbl.length table > 0 then Atomic.set enabled true;
    Ok ()

let configure_exn ?seed spec =
  match configure ?seed spec with
  | Ok () -> ()
  | Error msg -> invalid_arg msg

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some spec when String.trim spec = "" -> ()
  | Some spec ->
    let seed =
      match Sys.getenv_opt seed_env_var with
      | None -> 1
      | Some raw -> (
        match int_of_string_opt (String.trim raw) with
        | Some s -> s
        | None ->
          invalid_arg
            (Printf.sprintf "%s must be an integer, got %S" seed_env_var raw))
    in
    configure_exn ~seed spec

(* ---------------- probes ---------------- *)

(* Every caller has checked [enabled]: off stays one load and a branch. *)
let draw name =
  match Hashtbl.find_opt table name with
  | None ->
    if not (List.mem_assoc name catalogue) then
      invalid_arg (Printf.sprintf "Faultpoint: unknown point %S" name);
    None
  | Some p ->
    let k = 1 + Atomic.fetch_and_add p.probes 1 in
    if Prob.Rng.splitmix64_unit p.key k < p.prob then begin
      Atomic.incr p.count;
      Some p
    end
    else None

let hit name =
  if Atomic.get enabled then
    match draw name with
    | Some _ -> raise (Injected name)
    | None -> ()

let delay name =
  if Atomic.get enabled then
    match draw name with
    | Some p -> if p.param > 0.0 then Unix.sleepf (p.param /. 1000.0)
    | None -> ()

let short name =
  if Atomic.get enabled then
    Option.map (fun p -> Float.max 0.0 (Float.min 1.0 p.param)) (draw name)
  else None

(* ---------------- accounting ---------------- *)

let fired name =
  match Hashtbl.find_opt table name with
  | Some p -> Atomic.get p.count
  | None -> 0

let fired_all () =
  Hashtbl.fold
    (fun name p acc ->
      let n = Atomic.get p.count in
      if n > 0 then (name, n) :: acc else acc)
    table []
  |> List.sort compare

let total_fired () =
  Hashtbl.fold (fun _ p acc -> acc + Atomic.get p.count) table 0
