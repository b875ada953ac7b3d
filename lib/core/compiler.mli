(** The QTurbo compilation pipeline (paper §4–§6) for time-independent
    targets.

    Stages: build the global linear system over synthesized variables and
    solve it (greedy structural pass, dense fallback); decompose channels
    and variables into locality components; take [T_sim] as the maximum of
    the components' shortest feasible evolution times (the bottleneck
    instruction runs at full amplitude); solve each localized mixed system
    at [T_sim] — closed forms for linear/polar components, damped
    least squares for the runtime-fixed (position) components; iterate
    [T_sim] upward if the layout violates device geometry; finally apply
    the §6.2 refinement, re-solving the runtime-dynamic channels against
    the residual left by the achieved runtime-fixed amplitudes.

    The stages are implemented by {!Compile_plan}, split into a
    structural front-end (reusable, coefficient-free plans, cached by
    structural key) and a numeric back-end; this module re-exports the
    historical surface with type equations, so existing call sites are
    unaffected, and {!compile} delegates to the staged pipeline. *)

type options = Compile_plan.options = {
  refine : bool;  (** §6.2 iterative refinement (default true) *)
  time_opt : bool;
      (** §5.1 evolution-time optimisation; when false, [T_sim] is padded
          by [no_opt_padding] — the ablation baseline *)
  no_opt_padding : float;  (** default 3.0 *)
  dt_factor : float;
      (** multiplicative [Δt] step of the §5.2 constraint iteration
          (default 1.25) *)
  max_constraint_iters : int;  (** default 24 *)
  time_floor : float;  (** smallest allowed [T_sim] (default 1e-4) *)
  dense_linear_solver : bool;
      (** force the dense least-squares path (linear-solver ablation) *)
  generic_local_solver : bool;
      (** ignore the analytic linear/polar patterns and solve every
          dynamic component through the generic bisection + LM path
          (local-solver ablation) *)
  domains : int;
      (** pool width for the parallel stages (component solves, residual
          rows, α evaluation).  Defaults to
          {!Qturbo_par.Pool.default_domains} — i.e. [QTURBO_DOMAINS] when
          set, else cores − 1.  [1] runs fully sequentially; results are
          bitwise-identical either way. *)
  best_effort : bool;
      (** when a component fails every ladder stage, carry the failure on
          [result.failures] (with [degraded = true]) instead of raising
          {!Qturbo_resilience.Failure.Failed} (default false) *)
  deadline_seconds : float option;
      (** wall-clock budget for the whole compile, measured from the
          moment {!compile} builds its supervisor.  Stages started after
          expiry short-circuit with [Deadline_expired]; already-running
          pool sweeps are cancelled and re-run in short-circuit mode so
          the degraded result is identical at any [domains]. *)
  faults : Qturbo_resilience.Fault.spec option;
      (** deterministic fault injection for the supervised sites; [None]
          (the default) reads [QTURBO_FAULTS] from the environment *)
  plan_cache : bool;
      (** reuse structurally-identical {!Compile_plan} artifacts from
          the process-wide LRU cache (default true); a cache hit skips
          the whole structural front-end and is bitwise-identical to a
          cold build by construction *)
}

val default_options : options

type component_summary = Compile_plan.component_summary = {
  classification : string;  (** ["linear"|"polar"|"fixed"|"const"|"generic"] *)
  channels : int;
  variables : int;
  min_time : float;
  eps2 : float;
}

type plan_stats = Compile_plan.plan_stats = {
  cache_enabled : bool;
  cache_hit : bool;  (** this compile's plan came from the memory cache *)
  store_enabled : bool;  (** the persistent plan store was active *)
  store_hit : bool;  (** this compile's plan came off the on-disk store *)
  cache_hits : int;  (** process-wide counter, sampled at completion *)
  cache_misses : int;
  cache_discarded : int;
      (** process-wide: fresh builds dropped because the key was
          already resident (concurrent double-builds) *)
  build_seconds : float;  (** structural front-end cost (0 on a hit) *)
  solve_seconds : float;  (** numeric back-end cost *)
}

type provenance = Compile_plan.provenance = Built | Cached | Stored
    (** Where a compile's plan came from (see {!Compile_plan.obtain}). *)

type result = Compile_plan.result = {
  env : float array;  (** value of every AAIS variable *)
  t_sim : float;  (** compiled evolution time (µs) *)
  alpha_target : float array;  (** linear-system solution per channel *)
  alpha_achieved : float array;  (** [expr(env)·T_sim] per channel *)
  error_l1 : float;  (** [‖B_sim − B_tar‖₁] (paper Eq. 9) *)
  relative_error : float;  (** [error_l1 / ‖B_tar‖₁ × 100] (%) *)
  eps1 : float;  (** linear-system residual (Theorem 1's ε₁) *)
  eps2_total : float;  (** Σ of localized-system residuals (Σε₂ⁱ) *)
  theorem1_bound : float;  (** [‖M‖₁·Σε₂ + ε₁] — must dominate [error_l1] *)
  components : component_summary list;
  constraint_iterations : int;
  compile_seconds : float;  (** wall-clock time of the compilation *)
  warnings : string list;
      (** pipeline warnings; includes rendered warning-severity
          diagnostics from the precheck *)
  diagnostics : Qturbo_analysis.Diagnostic.t list;
      (** everything the pre-solve static analyzer found *)
  failures : Qturbo_resilience.Failure.t list;
      (** classified solver failures and recoveries collected by the
          resilience supervisor, in pipeline order *)
  degraded : bool;
      (** true iff some failure is fatal — a component kept a
          non-converged solution (best-effort compiles only; strict
          compiles raise instead) *)
  plan : plan_stats;  (** plan provenance and cache counters *)
}

val stage_hook : (string -> unit) ref
(** Called with a stage name as the pipeline enters it ("plan-build",
    "plan-cache-hit", "precheck", "linear-solve", "local-solve").
    Defaults to a no-op; tests install a recorder to assert, without
    timing, that rejected inputs never reach a solver stage and that
    cached compiles skip the plan build.  The same ref as
    {!Compile_plan.stage_hook}. *)

val analyze :
  ?t_max:float ->
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  unit ->
  Qturbo_analysis.Diagnostic.t list
(** Run every static-analysis pass (coverage, bounds feasibility,
    system structure, variable sanity) without compiling.  [t_max]
    enables the [QT003] magnitude check.  This is what [qturbo check]
    calls. *)

val diagnostics_of :
  ?t_max:float ->
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  ls:Linear_system.t ->
  comps:Locality.component list ->
  unit ->
  Qturbo_analysis.Diagnostic.t list
(** The passes of {!analyze} against a pre-built linear system and
    locality decomposition.  This is exactly the marginal work the
    precheck adds inside {!compile} (which builds [ls] and [comps]
    anyway); the [analysis] bench experiment measures it. *)

val compile :
  ?options:options ->
  ?strict:bool ->
  ?t_max:float ->
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  unit ->
  result
(** Raises [Invalid_argument] when [t_tar <= 0] or the target touches
    qubits outside the AAIS; a non-finite [t_tar] raises
    {!Qturbo_analysis.Diagnostic.Rejected} with a [QT016] diagnostic.

    Runs {!analyze} as a fail-fast precheck before any solver: with
    [strict] (the default), error-severity diagnostics raise
    {!Qturbo_analysis.Diagnostic.Rejected}; with [~strict:false] the
    pipeline proceeds anyway (the historical least-squares behaviour)
    and the findings are carried on [result.diagnostics].
    Warning-severity findings are additionally rendered into
    [result.warnings].

    Component solves run under the resilience escalation ladder; if a
    component exhausts every stage the compile raises
    {!Qturbo_resilience.Failure.Failed} unless [options.best_effort] is
    set, in which case the degraded result is returned with the
    classified records on [result.failures]. *)

val compile_batch :
  ?options:options ->
  ?strict:bool ->
  ?t_max:float ->
  ?batch_domains:int ->
  aais:Qturbo_aais.Aais.t ->
  (Qturbo_pauli.Pauli_sum.t * float) list ->
  result list
(** Compile a list of [(target, t_tar)] jobs against one AAIS, building
    the structural front-end once per distinct target shape.  With
    [options.plan_cache] (the default) plans go through the process-wide
    cache; with it disabled a batch-local memo still shares plans inside
    the batch.  Each job's result is exactly what {!compile} would have
    produced for it.

    Runs in two phases: plans are validated and acquired sequentially
    in job order (deterministic cache accounting), then the numeric
    back-ends run on the work pool with [batch_domains] workers
    (default [1] — fully sequential).  Results are collected by index,
    so the output list is bitwise-identical at any [batch_domains],
    including under injected faults; a rejection or failure raises the
    smallest-index job's exception, exactly like the sequential loop. *)

val b_tar_norm1 :
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  float
(** [‖B_tar‖₁] over the compiler's row set (identity excluded); the
    denominator of the relative-error metric. *)
