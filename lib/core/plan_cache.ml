type stats = {
  hits : int;
  misses : int;
  evictions : int;
  discarded : int;
  size : int;
  capacity : int;
}

type 'a entry = { value : 'a; mutable last_used : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable discarded : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    discarded = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.tick <- t.tick + 1;
          e.last_used <- t.tick;
          t.hits <- t.hits + 1;
          Some e.value
      | None ->
          t.misses <- t.misses + 1;
          None)

(* Evict the least-recently-used entry.  Capacities are small (tens),
   so a linear scan beats maintaining an intrusive list. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, age) when age <= e.last_used -> ()
      | _ -> victim := Some (key, e.last_used))
    t.tbl;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t key value =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          (* plans for equal keys are interchangeable; keep the resident
             one (it may already be shared) and just refresh its age.
             The fresh build is dropped — count it, so the telemetry
             reports the duplicated front-end work honestly instead of
             silently under-reporting it (concurrent double-builds land
             here). *)
          e.last_used <- t.tick;
          t.discarded <- t.discarded + 1
      | None ->
          if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
          Hashtbl.add t.tbl key { value; last_used = t.tick })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.discarded <- 0)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        discarded = t.discarded;
        size = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })
