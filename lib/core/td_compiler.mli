(** Compilation of time-dependent targets (paper §5.3).

    The driven Hamiltonian is discretized into piecewise-constant segments
    (midpoint rule) and compiled by the shared segment-indexed back end,
    {!Compile_plan.solve_segments}; this module discretizes and
    repackages around it.
    Runtime-dynamic variables may change between segments, but
    runtime-fixed variables (atom positions) are shared: the back end
    picks the segment demanding the largest fixed-channel amplitude as
    the {e binding segment}, solves the layout against it, and stretches
    every other segment's evolution time so its (now over-strong) fixed
    amplitudes integrate to exactly the required [B] — lowering the
    dynamic amplitudes, which always remains within bounds (paper's
    argument at the end of §5.3). *)

type segment_result = {
  env : float array;
  duration : float;  (** compiled duration of this segment (µs) *)
  error_l1 : float;
  eps1 : float;
}

type result = {
  segments : segment_result list;
  t_sim : float;  (** total compiled execution time *)
  error_l1 : float;  (** summed over segments *)
  relative_error : float;  (** percent, against the summed [‖B_tar‖₁] *)
  binding_segment : int;  (** index of the segment that fixed the layout *)
  compile_seconds : float;
  warnings : string list;
  diagnostics : Qturbo_analysis.Diagnostic.t list;
      (** static-analyzer findings over all discretized segments,
          deduplicated by (code, subject) *)
  failures : Qturbo_resilience.Failure.t list;
      (** classified solver failures and recoveries collected by the
          resilience supervisor, in pipeline order *)
  degraded : bool;
      (** true iff some failure is fatal (best-effort compiles only;
          strict compiles raise instead) *)
  plan_shapes : int;
      (** distinct structural shapes among the discretized segments —
          always 1: every segment compiles against the union support of
          the whole discretization, so per-segment coefficient
          cancellations (the mis-chain K ≡ 2 mod 4 quirk) can no longer
          fork a second shape *)
  plan_builds : int;
      (** structural front-ends actually built by this compile; [0]
          when every shape was already resident in the process-wide
          plan cache — a sweep over re-discretized models pays the
          front-end once for the whole sweep *)
}

val compile :
  ?options:Compiler.options ->
  ?strict:bool ->
  ?t_max:float ->
  aais:Qturbo_aais.Aais.t ->
  model:Qturbo_models.Model.t ->
  t_tar:float ->
  segments:int ->
  unit ->
  result
(** Works for static models too (each segment then sees the same
    Hamiltonian).  Raises [Invalid_argument] on finite nonpositive
    [t_tar]; a non-finite [t_tar] or [segments <= 0] raises
    {!Qturbo_analysis.Diagnostic.Rejected} with a structured [QT016]
    diagnostic instead of an unclassified exception.

    Every segment compiles against one plan, keyed by the union support
    of all discretized segments, through the same back end as
    {!Compiler.compile}: a single segment {e is} a static compile of
    the discretized Hamiltonian, and every option (evolution-time
    padding, the dense linear solver, refinement, supervision) applies
    to every segment.  With more than one segment, each segment's
    duration is stretched so the shared layout integrates to its
    required [B]; the binding segment additionally never runs faster
    than the layout's (constraint-iterated) [T].

    Every discretized segment Hamiltonian runs through the pre-solve
    static analyzer first; with [strict] (the default) error-severity
    diagnostics raise {!Qturbo_analysis.Diagnostic.Rejected} before any
    solver runs.

    The binding-layout and per-segment solves run under the resilience
    escalation ladder; if a component exhausts every stage the compile
    raises {!Qturbo_resilience.Failure.Failed} unless
    [options.best_effort] is set, in which case the degraded result is
    returned with the classified records on [result.failures]. *)

val compile_batch :
  ?options:Compiler.options ->
  ?strict:bool ->
  ?t_max:float ->
  ?batch_domains:int ->
  aais:Qturbo_aais.Aais.t ->
  model:Qturbo_models.Model.t ->
  (int * float) list ->
  result list
(** Compile a list of [(segments, t_tar)] jobs re-discretizing one
    driven [model]; each job's result is exactly what {!compile} would
    have produced for it ({!compile} is the one-job batch).

    Runs in two phases, like {!Compiler.compile_batch}: every job is
    validated, discretized and acquires its plan sequentially in job
    order (deterministic cache accounting and [plan_builds]), so a
    rejected job raises before any solve runs; then the segment solves
    run on the work pool with [batch_domains] workers (default [1] —
    fully sequential), largest segment count first.  Results are
    collected by job index, so the output list is bitwise-identical at
    any [batch_domains], including under injected faults, and a failure
    raises the exception of the smallest-index failing job, exactly like
    the sequential loop.  Inside a worker a job's own segment pool runs
    inline; a one-job batch runs inline and keeps its segment
    parallelism.  Each [compile_seconds] covers the job's own
    acquisition and solve, not time spent waiting for a worker. *)
