(* Observability: metrics registry + span tracer.  Stdlib + Unix only.

   Design constraints (see DESIGN.md §9):
   - disabled (the default) must be a near-zero-cost no-op: one atomic
     load and a branch per instrumentation site, no allocation, no
     locking, so the sequential solver path is bit-identical to an
     uninstrumented build;
   - enabled must be safe to call from any domain: counters, gauges and
     histogram cells are Atomic cells, the name->metric table is
     mutex-protected, and span completion pushes under a mutex;
   - counters and histogram *bucket counts* recorded outside pool_* /
     *_ms must not depend on how work was scheduled, so cross-domain
     equality can be asserted (bench e26, test_obs). *)

(* The one monotonised wall clock (budgets, deadlines, latencies): a
   CAS high-water mark keeps the reading non-decreasing across domains
   even if the system clock is stepped backwards. *)
let mono_high = Atomic.make neg_infinity

let now () =
  let t = Unix.gettimeofday () in
  let rec bump () =
    let prev = Atomic.get mono_high in
    if t <= prev then prev
    else if Atomic.compare_and_set mono_high prev t then t
    else bump ()
  in
  bump ()

let sanitize name =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let b = Bytes.of_string name in
  for i = 0 to Bytes.length b - 1 do
    if not (ok (Bytes.get b i)) then Bytes.set b i '_'
  done;
  let s = Bytes.unsafe_to_string b in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

let latency_ms_buckets =
  [| 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.;
     2500.; 5000.; 10000. |]

let small_count_buckets = [| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32.; 64. |]

module J = Wire.Json

(* Atomic float accumulator: CAS loop over the boxed float. *)
let atomic_fadd cell v =
  let rec go () =
    let prev = Atomic.get cell in
    if not (Atomic.compare_and_set cell prev (prev +. v)) then go ()
  in
  go ()

module Metrics = struct
  type histogram = {
    bounds : float array;  (* strictly increasing upper bounds *)
    cells : int Atomic.t array;  (* length bounds + 1; last = overflow *)
    h_count : int Atomic.t;
    h_sum : float Atomic.t;
  }

  type metric =
    | Counter of int Atomic.t
    | Gauge of int Atomic.t
    | Histogram of histogram

  type t = {
    on : bool Atomic.t;
    lock : Mutex.t;
    table : (string, metric) Hashtbl.t;
  }

  let create () =
    { on = Atomic.make false; lock = Mutex.create (); table = Hashtbl.create 64 }

  let default = create ()
  let set_enabled t b = Atomic.set t.on b
  let enabled t = Atomic.get t.on

  let reset t =
    Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)

  let kind_name = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Histogram _ -> "histogram"

  (* Look up [name], creating it with [make] under the registry lock if
     absent.  A name can only ever hold one metric kind. *)
  let find_or_add t name ~make ~match_ =
    let name = sanitize name in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table name with
        | Some m -> (
            match match_ m with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "Obs.Metrics: %s already registered as a %s"
                     name (kind_name m)))
        | None ->
            let m = make () in
            Hashtbl.add t.table name m;
            match match_ m with
            | Some v -> v
            | None -> assert false)

  let counter_cell t name =
    find_or_add t name
      ~make:(fun () -> Counter (Atomic.make 0))
      ~match_:(function Counter c -> Some c | _ -> None)

  let gauge_cell t name =
    find_or_add t name
      ~make:(fun () -> Gauge (Atomic.make 0))
      ~match_:(function Gauge g -> Some g | _ -> None)

  let histogram_of t ?(buckets = latency_ms_buckets) name =
    let check_bounds bounds =
      if Array.length bounds = 0 then
        invalid_arg "Obs.Metrics: histogram needs at least one bucket bound";
      for i = 1 to Array.length bounds - 1 do
        if not (bounds.(i) > bounds.(i - 1)) then
          invalid_arg "Obs.Metrics: histogram bounds must be strictly increasing"
      done
    in
    find_or_add t name
      ~make:(fun () ->
        check_bounds buckets;
        Histogram
          {
            bounds = Array.copy buckets;
            cells = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0.;
          })
      ~match_:(function
        | Histogram h ->
            if h.bounds <> buckets && buckets != latency_ms_buckets then
              (* Re-registration with explicitly different bounds is a
                 programming error; omitting ~buckets on later calls is
                 allowed and keeps the first registration's bounds. *)
              None
            else Some h
        | _ -> None)

  let incr t name = if enabled t then Atomic.incr (counter_cell t name)

  let add t name n =
    if enabled t then
      let c = counter_cell t name in
      ignore (Atomic.fetch_and_add c n)

  let gauge_set t name v = if enabled t then Atomic.set (gauge_cell t name) v

  let gauge_add t name v =
    if enabled t then ignore (Atomic.fetch_and_add (gauge_cell t name) v)

  let bucket_index bounds v =
    (* First bound >= v; Array.length bounds = overflow. *)
    let n = Array.length bounds in
    let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe t ?buckets name v =
    if enabled t then begin
      let h = histogram_of t ?buckets name in
      Atomic.incr h.cells.(bucket_index h.bounds v);
      Atomic.incr h.h_count;
      atomic_fadd h.h_sum v
    end

  (* Snapshots -------------------------------------------------------- *)

  let sorted_bindings t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counter_value t name =
    let name = sanitize name in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table name with
        | Some (Counter c) -> Atomic.get c
        | _ -> 0)

  let counters t =
    List.filter_map
      (function n, Counter c -> Some (n, Atomic.get c) | _ -> None)
      (sorted_bindings t)

  let gauges t =
    List.filter_map
      (function n, Gauge g -> Some (n, Atomic.get g) | _ -> None)
      (sorted_bindings t)

  let histogram_buckets t =
    List.filter_map
      (function
        | n, Histogram h -> Some (n, Array.map Atomic.get h.cells)
        | _ -> None)
      (sorted_bindings t)

  (* Exposition ------------------------------------------------------- *)

  (* Bucket counts made cumulative, the overflow bucket last. *)
  let cumulative h =
    let cum = Array.map Atomic.get h.cells in
    for i = 1 to Array.length cum - 1 do
      cum.(i) <- cum.(i) + cum.(i - 1)
    done;
    cum

  let to_json t =
    let bindings = sorted_bindings t in
    let section pick =
      J.Obj
        (List.filter_map
           (fun (n, m) -> Option.map (fun v -> (n, v)) (pick m))
           bindings)
    in
    let histogram h =
      let cum = cumulative h in
      let bucket i =
        let b = Array.length h.bounds in
        let le = if i < b then J.Num h.bounds.(i) else J.Str "+Inf" in
        J.Obj [ ("le", le); ("count", J.int cum.(i)) ]
      in
      J.Obj
        [
          ("count", J.int (Atomic.get h.h_count));
          ("sum", J.Num (Atomic.get h.h_sum));
          ("buckets", J.Arr (List.init (Array.length cum) bucket));
        ]
    in
    let int c = Some (J.int (Atomic.get c)) in
    J.to_string
      (J.Obj
         [
           ("counters", section (function Counter c -> int c | _ -> None));
           ("gauges", section (function Gauge g -> int g | _ -> None));
           ( "histograms",
             section (function Histogram h -> Some (histogram h) | _ -> None) );
         ])

  (* Finite numbers print as in JSON; the rest in Prometheus's spelling. *)
  let prom_num x =
    if Float.is_finite x then J.to_string (J.Num x)
    else if Float.is_nan x then "NaN"
    else if x > 0. then "+Inf"
    else "-Inf"

  let to_prometheus t =
    let buf = Buffer.create 1024 in
    let line fmt = Printf.bprintf buf fmt in
    List.iter
      (fun (n, m) ->
        match m with
        | Counter c -> line "# TYPE %s counter\n%s %d\n" n n (Atomic.get c)
        | Gauge g -> line "# TYPE %s gauge\n%s %d\n" n n (Atomic.get g)
        | Histogram h ->
            line "# TYPE %s histogram\n" n;
            Array.iteri
              (fun i c ->
                let b = Array.length h.bounds in
                let le = if i < b then h.bounds.(i) else infinity in
                line "%s_bucket{le=\"%s\"} %d\n" n (prom_num le) c)
              (cumulative h);
            line "%s_sum %s\n%s_count %d\n" n
              (prom_num (Atomic.get h.h_sum))
              n (Atomic.get h.h_count))
      (sorted_bindings t);
    Buffer.contents buf
end

module Trace = struct
  type span = {
    id : int;
    parent : int;
    name : string;
    start_s : float;
    stop_s : float;
    domain : int;
  }

  type t = {
    on : bool Atomic.t;
    lock : Mutex.t;
    mutable completed : span list;  (* most recently finished first *)
    next_id : int Atomic.t;
  }

  let create () =
    {
      on = Atomic.make false;
      lock = Mutex.create ();
      completed = [];
      next_id = Atomic.make 1;
    }

  let default = create ()
  let set_enabled t b = Atomic.set t.on b
  let enabled t = Atomic.get t.on

  let reset t =
    Mutex.protect t.lock (fun () -> t.completed <- []);
    Atomic.set t.next_id 1

  let no_parent = -1

  let with_span t ?(parent = no_parent) name f =
    if not (Atomic.get t.on) then f no_parent
    else begin
      let id = Atomic.fetch_and_add t.next_id 1 in
      let start_s = now () in
      let finish () =
        let span =
          {
            id;
            parent;
            name;
            start_s;
            stop_s = now ();
            domain = (Domain.self () :> int);
          }
        in
        Mutex.protect t.lock (fun () -> t.completed <- span :: t.completed)
      in
      Fun.protect ~finally:finish (fun () -> f id)
    end

  let spans t =
    Mutex.protect t.lock (fun () -> t.completed)
    |> List.sort (fun a b ->
           match Float.compare a.start_s b.start_s with
           | 0 -> Int.compare a.id b.id
           | c -> c)

  let to_json t =
    let span s =
      J.Obj
        [
          ("id", J.int s.id);
          ("parent", if s.parent < 0 then J.Null else J.int s.parent);
          ("name", J.Str s.name);
          ("start_s", J.Num s.start_s);
          ("dur_ms", J.Num ((s.stop_s -. s.start_s) *. 1000.));
          ("domain", J.int s.domain);
        ]
    in
    J.to_string (J.Obj [ ("spans", J.Arr (List.map span (spans t))) ])
end

let on () = Metrics.enabled Metrics.default
let count name = Metrics.incr Metrics.default name
let count_n name n = Metrics.add Metrics.default name n
let gauge_set name v = Metrics.gauge_set Metrics.default name v
let gauge_add name v = Metrics.gauge_add Metrics.default name v
let observe ?buckets name v = Metrics.observe Metrics.default ?buckets name v
let span ?parent name f = Trace.with_span Trace.default ?parent name f
