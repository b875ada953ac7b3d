(** Bounded, mutex-guarded LRU cache keyed by structural strings.

    Backs the {!Compile_plan} plan and device caches and the daemon's
    backend-instance cache.  Entries must be immutable (plans are),
    because a cached value may be shared by concurrent compiles running
    on different pool domains.  All operations are thread-safe; the
    critical sections are tiny (a hash-table probe), so contention is
    negligible next to a solve.

    The cache holds at most [capacity] keys: an evicted entry's key and
    value are dropped together, so memory stays bounded however many
    distinct shapes a long-running process sees.  Its only telemetry is
    the process-global counters of {!stats}, surfaced in
    [qturbo compile --json], the sweep reports and the daemon [stats]
    op.  {!clear} resets everything (tests and benchmarks start from a
    cold, zero-counter state). *)

type stats = {
  hits : int;
  misses : int;  (** {!find} calls that returned [None] *)
  evictions : int;
  discarded : int;
      (** {!add} calls that found the key already resident and dropped
          the freshly built value (concurrent double-builds) *)
  size : int;  (** resident entries *)
  capacity : int;
}

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Counts a hit (and refreshes the entry's age) or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert, evicting the least-recently-used entry at capacity.  If the
    key is already resident the resident value is kept — values for
    equal structural keys are interchangeable by construction — and the
    drop is counted as [discarded]. *)

val clear : 'a t -> unit
(** Drop every entry and zero the counters. *)

val stats : 'a t -> stats
