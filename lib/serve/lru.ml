(* Exact LRU over string keys: a hash table of the nodes of an
   intrusive doubly-linked list, most recently used at the front.
   [find] and [add] are O(1); an [add] at the cap unlinks the tail. Not
   thread-safe: [Cache] and [Dedup] call it under their own locks. *)

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;  (* towards most-recent *)
  mutable next : 'a node option;  (* towards least-recent *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  cap : int;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used; evicted first *)
}

let create cap = { tbl = Hashtbl.create 256; cap; head = None; tail = None }
let length t = Hashtbl.length t.tbl
let mem t key = Hashtbl.mem t.tbl key

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Marks the entry most-recently-used. *)
let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
    (match t.head with
     | Some h when h == n -> ()
     | _ ->
       unlink t n;
       push_front t n);
    Some n.value

(* Inserts [key] at the front unless it is already present (first
   writer wins); returns whether the least-recently-used entry was
   evicted to stay within the cap. *)
let add t key value =
  if Hashtbl.mem t.tbl key then false
  else begin
    let evicted =
      match t.tail with
      | Some n when Hashtbl.length t.tbl >= t.cap ->
        unlink t n;
        Hashtbl.remove t.tbl n.key;
        true
      | _ -> false
    in
    let n = { key; value; prev = None; next = None } in
    push_front t n;
    Hashtbl.replace t.tbl key n;
    evicted
  end
