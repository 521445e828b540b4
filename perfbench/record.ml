(* What a run reports: every metric with its unit (and the sample count
   behind each percentile), stamped with what was measured, on which
   machine, at which source. *)

module Json = Wire.Json

type metric = { name : string; value : float; unit : string; samples : int option }

let metric ?samples name unit value = { name; value; unit; samples }

(* ---- stamp ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec source_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    List.concat_map
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then source_files p
        else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune" then [ p ]
        else [])
      (Array.to_list entries)
  | exception Sys_error _ -> []

(* Digest of the program's sources (lib/, bin/, dune-project): names the
   code under test even where the checkout carries no git metadata. *)
let source_digest () =
  let files = ("dune-project" :: source_files "lib") @ source_files "bin" in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun f -> f ^ " " ^ (try Digest.to_hex (Digest.file f) with Sys_error _ -> "-")) files)))

(* The commit, read from .git in the working directory when there is
   one (no git process, nothing outside the checkout). *)
let commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match trim (read_file (Filename.concat ".git" ref_)) with
    | sha -> sha
    | exception Sys_error _ -> (
      match read_file ".git/packed-refs" with
      | exception Sys_error _ -> "unknown"
      | packed ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ' ' line with
            | [ sha; r ] when r = ref_ -> sha
            | _ -> acc)
          "unknown" (String.split_on_char '\n' packed)))
  | sha -> sha

let stamp ~workload ~seed ~seconds ~trace ~extra =
  Json.Obj
    ([
       ("workload", Json.Str workload);
       ("seed", Json.Num (float_of_int seed));
       ("seconds", Json.Num (float_of_int seconds));
       ("trace", Json.Bool trace);
       ("commit", Json.Str (commit ()));
       ("source_md5", Json.Str (source_digest ()));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
       ("unix_time", Json.Num (Float.round (Unix.gettimeofday ())));
     ]
    @ extra)

(* ---- output ---- *)

(* All the digits the float has: shortest round-trip representation. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Record.number: non-finite metric"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let human (m : metric) =
  Printf.printf "  %-34s %16s %-6s%s\n" m.name (number m.value) m.unit
    (match m.samples with Some n -> Printf.sprintf "  n=%d" n | None -> "")

let json_metric m =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.to_string (Json.Str m.name)) (number m.value)
    (Json.to_string (Json.Str m.unit))

let records_file = Filename.concat ".perfbench" "records.jsonl"

(* The full record (stamp, every metric with its sample count, notes)
   goes to stdout and to .perfbench/records.jsonl; the result object,
   the last line, carries [metrics] only — [shown] metrics are printed
   and recorded beside them. *)
let emit ~stamp ~correct ~attempted ~failed ~notes ~shown metrics =
  print_endline "metrics:";
  List.iter human metrics;
  if shown <> [] then print_endline "unbounded:";
  List.iter human shown;
  List.iter (fun n -> Printf.printf "  %s\n" n) notes;
  let record =
    Json.to_string
      (Json.Obj
         [
           ("stamp", stamp);
           ("correct", Json.Bool correct);
           ("attempted", Json.Num (float_of_int attempted));
           ("failed", Json.Num (float_of_int failed));
           ( "metrics",
             Json.Arr
               (List.map
                  (fun m ->
                    Json.Obj
                      ([ ("name", Json.Str m.name); ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]
                      @ match m.samples with Some n -> [ ("samples", Json.Num (float_of_int n)) ] | None -> []))
                  (metrics @ shown)) );
           ("notes", Json.Arr (List.map (fun n -> Json.Str n) notes));
         ])
  in
  Printf.printf "record: %s\n" record;
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 records_file (fun oc ->
      output_string oc (record ^ "\n"));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed
    (String.concat ", " (List.map json_metric metrics))
