(** Staged compile pipeline: reusable plan artifacts + a structural cache.

    The compiler's work splits cleanly into a {e structural front-end}
    that depends only on the AAIS and the target's shape (which Pauli
    terms it touches) — term indexing, linear-system skeleton, locality
    decomposition, per-component classification, compiled expression
    kernels, prepared solver contexts — and a {e numeric back-end} that
    additionally consumes the target coefficients and the evolution time.
    {!build} produces the former as an immutable, coefficient-free
    {!t}; {!solve} runs the latter against a plan.  Parameter sweeps,
    batch compiles and the segments of a time-dependent compile all
    reuse one plan, paying the front-end once.

    Plans are cached process-wide in a bounded LRU ({!Plan_cache})
    keyed by an exact structural string ({!plan_key}): the AAIS
    fingerprint (name, variables, channel expressions/hints/effects and
    the device builder's constraint fingerprint) plus the target's
    support and the classification-affecting options.  Exact keys mean
    no hash collisions; equal keys produce interchangeable plans, so a
    cache hit is bitwise-identical to a cold build by construction.

    [Compiler] re-exports the [options]/[result] types from here and
    delegates [Compiler.compile]; existing call sites are unaffected. *)

open Qturbo_aais
open Qturbo_pauli

module Failure = Qturbo_resilience.Failure
module Fault = Qturbo_resilience.Fault
module Supervisor = Qturbo_resilience.Supervisor
module Diagnostic = Qturbo_analysis.Diagnostic

type options = {
  refine : bool;  (** iterative refinement pass (paper §6.2) *)
  time_opt : bool;  (** evolution-time optimisation (§5.1) *)
  no_opt_padding : float;  (** T multiplier when [time_opt] is off *)
  dt_factor : float;  (** T growth per constraint iteration (§5.2) *)
  max_constraint_iters : int;
  time_floor : float;  (** smallest admissible evolution time *)
  dense_linear_solver : bool;  (** ablation: skip the greedy pass *)
  generic_local_solver : bool;  (** ablation: force Nelder–Mead *)
  domains : int;  (** worker domains for parallel sections *)
  best_effort : bool;  (** degrade instead of raising on fatal failure *)
  deadline_seconds : float option;
  faults : Fault.spec option;  (** fault injection (tests/CI) *)
  plan_cache : bool;
      (** reuse structurally-identical plans from the process-wide
          cache; off = rebuild the front-end on every compile *)
}

val default_options : options

val stage_hook : (string -> unit) ref
(** Observability hook; receives ["plan-build"], ["plan-cache-hit"],
    ["precheck"], ["linear-solve"], ["local-solve"] in pipeline order.
    Shared with [Compiler.stage_hook] (same ref). *)

type component_summary = {
  classification : string;
  channels : int;
  variables : int;
  min_time : float;
  eps2 : float;
}

type plan_stats = {
  cache_enabled : bool;
  cache_hit : bool;  (** this compile's plan came from the memory cache *)
  store_enabled : bool;  (** the persistent plan store was active *)
  store_hit : bool;  (** this compile's plan came off the on-disk store *)
  cache_hits : int;  (** process-wide counter, sampled at completion *)
  cache_misses : int;
  cache_discarded : int;
      (** process-wide: fresh builds dropped because the key was
          already resident (concurrent double-builds) *)
  build_seconds : float;  (** front-end cost (0 on a cache or store hit) *)
  solve_seconds : float;  (** numeric back-end cost *)
}

type provenance = Built | Cached | Stored
    (** Where a compile's plan came from: a fresh front-end build, the
        in-memory LRU, or the on-disk {!Qturbo_store.Plan_store}. *)

type result = {
  env : float array;
  t_sim : float;
  alpha_target : float array;
  alpha_achieved : float array;
  error_l1 : float;
  relative_error : float;
  eps1 : float;
  eps2_total : float;
  theorem1_bound : float;
  components : component_summary list;
  constraint_iterations : int;
  compile_seconds : float;
  warnings : string list;
  diagnostics : Diagnostic.t list;
  failures : Failure.t list;
  degraded : bool;
  plan : plan_stats;
}

(** {1 Plan artifacts} *)

type prepared_comp =
  | Dynamic of Local_solver.prepared
  | Fixed of Fixed_solver.prepared

type device = {
  aais : Aais.t;
  channels : Instruction.channel array;
  vars : Variable.t array;
  generic_local_solver : bool;
  comps : Locality.component list;
  classifications : Local_solver.classification list;
  prepared : prepared_comp list;
  device_key : string;
}
(** The target-independent part of a plan: locality decomposition,
    classifications (with the [generic_local_solver] override applied)
    and prepared solver contexts.  Depends only on the AAIS, so it is
    shared across every target shape on the same device. *)

type t = {
  device : device;
  support : Pauli_string.t list;
  skeleton : Linear_system.skeleton;
  structure_diags : Diagnostic.t list;
      (** the shape-only analyzer pass, computed once per plan *)
  key : string;
  build_seconds : float;
}

val support_of_target : Pauli_sum.t -> Pauli_string.t list
(** Non-identity support, in term order (= {!Shape.support_of_target}). *)

val device_key : options:options -> aais:Aais.t -> string
(** The device section of {!plan_key}: [aais] rendered through
    {!Shape.of_aais}, prefixed by the classification-affecting option.
    Memoized per [Aais.t] by physical identity (at most 16 entries,
    most recently used kept), each entry checked against the pool's
    {!Variable.count} so a pool grown by {!Variable.fresh} re-renders.
    After a plan lookup the entry holds the very string the plan's
    device part holds.  [options.plan_cache = false] renders fresh. *)

val plan_key : options:options -> aais:Aais.t -> target:Pauli_sum.t -> string
(** The structural cache key this target would compile under.  Equal
    keys ⇒ interchangeable plans; coefficients do not contribute. *)

val obtain_device : options:options -> aais:Aais.t -> device
(** The device part for [aais], through the device cache
    ([options.plan_cache = false] builds it fresh). *)

val build :
  ?options:options ->
  ?device:device ->
  aais:Aais.t ->
  target_shape:Pauli_string.t list ->
  unit ->
  t
(** Build a plan for a target shape (fires the ["plan-build"] hook).
    [?device] reuses an already-built device part. *)

val obtain :
  options:options -> aais:Aais.t -> target:Pauli_sum.t -> t * provenance
(** Fetch-or-build the plan for [target]'s shape, reporting where it
    came from.  Lookup order: memory LRU, then the persistent store
    (when {!enable_store} is active — a validated store hit back-fills
    the LRU), then a fresh build (which back-fills both).  Fresh builds
    pass through the {!lint} gate (see {!build}) and store payloads are
    re-linted before being served; a memory hit is served as is (plans
    are immutable and were linted on the way in). *)

val obtain_for_support :
  options:options ->
  aais:Aais.t ->
  support:Pauli_string.t list ->
  t * provenance
(** {!obtain} for an explicit (canonically sorted, identity-free)
    support instead of a target's own shape.  [Td_compiler] uses this to
    compile every segment of a sweep against the {e union} support of
    all segments, so coefficient cancellations in individual segments
    cannot fork a second plan shape. *)

val structure_rows :
  index:Term_index.t ->
  cells:(int * float) list array ->
  Qturbo_analysis.Structure.row list
(** The generic row view the structure pass of [qturbo.analysis] takes. *)

val structure_comps :
  Locality.component list -> Qturbo_analysis.Structure.comp list
(** The generic component view of a locality decomposition. *)

(** {1 Plan linting}

    The cross-stage invariant pass ([Qturbo_analysis.Plan_lint], codes
    [QT023]–[QT028]) over a plan's artifacts: term-index coverage of the
    canonical support, skeleton dimensions, locality-component
    partition, classification arity, structural-key round-trip, and
    prepared-context agreement.  {!build} runs it on every fresh plan
    and raises {!Diagnostic.Rejected} on errors (disable via
    {!lint_plans}); every plan loaded from the store is linted too. *)

val lint : t -> Diagnostic.t list
(** Run the invariant pass on a plan; [[]] when sound. *)

val lint_plans : bool ref
(** Lint every fresh {!build} (default [true]).  Turned off only for
    overhead measurement ([bench analysis]). *)

(** {1 Solving} *)

val validate_t_tar : who:string -> float -> unit
(** Shared input validation: non-finite [t_tar] raises
    {!Diagnostic.Rejected} with a [QT016] diagnostic; [t_tar <= 0.0]
    raises [Invalid_argument "<who>: t_tar <= 0"]. *)

module Segments : sig
  type segment = {
    env : float array;  (** value of every AAIS variable *)
    duration : float;  (** compiled duration of this segment *)
    alpha : float array;  (** linear-system solution per channel *)
    achieved : float array;  (** [expr(env)·duration] per channel *)
    error_l1 : float;  (** [‖B_sim − B_tar‖₁] of this segment *)
    eps1 : float;  (** linear-system residual *)
    system : Linear_system.t;  (** the instantiated system *)
    min_times : float array;  (** per locality component ([0.] if fixed) *)
    eps2s : float array;  (** per locality component *)
  }

  type t = {
    segments : segment list;
    binding_segment : int;  (** the segment the layout was solved for *)
    constraint_iterations : int;
    warnings : string list;
    diagnostics : Diagnostic.t list;
        (** precheck findings over all segments, deduplicated by
            (code, subject) *)
    failures : Failure.t list;  (** in pipeline order *)
    degraded : bool;
  }
end

val solve_segments :
  options:options ->
  strict:bool ->
  ?t_max:float ->
  plan:t ->
  targets:Pauli_sum.t list ->
  tau_tar:float ->
  unit ->
  Segments.t
(** The numeric back-end, segment-indexed (paper §5.3): a static
    compile is one segment.  Every target (one per piecewise-constant
    segment, each evolving for [tau_tar]) must lie inside the plan's
    shape.  Stages, each run once over all segments:

    + precheck every segment with the static analyzer (with [strict],
      error-severity findings raise {!Diagnostic.Rejected} before any
      solver runs);
    + per-segment global linear solves;
    + evolution-time search: per segment, the largest of its
      components' shortest feasible times (padded by
      [no_opt_padding] when [time_opt] is off);
    + the runtime-fixed layout, shared by all segments and solved
      against the {e binding segment} — the one demanding the largest
      fixed-channel amplitude — with [T] grown by [dt_factor] while the
      layout violates device geometry (§5.2);
    + per-segment duration: a single segment runs at the layout's [T];
      with several, each segment is stretched so the shared layout
      integrates to its required [B], never below its dynamic
      bottleneck, and the binding segment never below the layout's [T];
    + per-segment refinement (§6.2) and dynamic-component solves.

    Every solve runs under the {!Supervisor} escalation ladder; if a
    component exhausts every stage this raises {!Failure.Failed}
    unless [options.best_effort] is set. *)

val solve :
  ?options:options ->
  ?strict:bool ->
  ?t_max:float ->
  ?provenance:provenance ->
  plan:t ->
  coeffs:Pauli_sum.t ->
  t_tar:float ->
  unit ->
  result
(** {!solve_segments} for one segment, repackaged with the
    per-component summary and plan provenance.  [coeffs] must lie
    inside the plan's shape (terms outside it raise
    [Invalid_argument]); extra shape rows simply get a zero target.
    [?provenance] (default [Built]) only annotates [result.plan]. *)

val compile :
  ?options:options ->
  ?strict:bool ->
  ?t_max:float ->
  aais:Aais.t ->
  target:Pauli_sum.t ->
  t_tar:float ->
  unit ->
  result
(** [obtain] + [solve] — the staged equivalent of the historical
    [Compiler.compile]. *)

(** {1 Persistent plan store}

    Process-wide hook for the on-disk store ({!Qturbo_store.Plan_store}):
    when enabled, {!obtain} consults it on every memory-cache miss and
    persists every fresh build, so a second process skips the front end
    for shapes a first process already compiled.  Payloads are whole
    plans marshaled with closures; the store version ties entries to
    the exact executable (see {!store_version}), and every load is
    checksum-validated and re-linted, so a stale, torn or hand-edited
    entry degrades to a rebuild, never to wrong output.  Results are
    bitwise-identical with the store on or off. *)

val enable_store : dir:string -> unit
(** Route {!obtain} through a store rooted at [dir] (created lazily).
    Replaces any previously enabled store.  When the running executable
    cannot be identified ({!store_version} is [None]) the store stays
    disabled and one warning is logged. *)

val disable_store : unit -> unit

val store_dir : unit -> string option
val store_stats : unit -> Qturbo_store.Plan_store.stats option

val store_version : unit -> string option
(** The store-format version tag this process writes and requires:
    a format prefix plus the running executable's identity,
    [qturbo-plan/1 build-id:<hex>] or [qturbo-plan/1 md5:<hex>] (see
    {!Qturbo_store.Plan_store.binary_identity}) — marshaled closures do
    not survive a rebuild, so a new binary must invalidate every prior
    entry.  [None] when the executable cannot be read.  Computed once
    per process.  Exposed for tests and ops tooling. *)

(** {1 Cache control} *)

val cache_stats : unit -> Plan_cache.stats

val device_cache_stats : unit -> Plan_cache.stats

type device_key_stats = {
  renders : int;  (** {!Shape.of_aais} renders done by {!device_key} *)
  memo_hits : int;  (** {!device_key} calls served from the memo *)
  memo_size : int;  (** resident memo entries *)
}

val device_key_stats : unit -> device_key_stats

val clear_caches : unit -> unit
(** Drop all cached plans/devices and memoized device keys and zero
    the counters (tests, benchmarks and cold-path measurement). *)
