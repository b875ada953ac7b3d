open Qturbo_aais
open Qturbo_pauli

module Failure = Qturbo_resilience.Failure
module Fault = Qturbo_resilience.Fault

(* The pipeline itself lives in [Compile_plan]; this module re-exports
   the historical surface (the types with equations, so field access
   through [Compiler] keeps working everywhere) and adds the batch
   entry point. *)

type options = Compile_plan.options = {
  refine : bool;
  time_opt : bool;
  no_opt_padding : float;
  dt_factor : float;
  max_constraint_iters : int;
  time_floor : float;
  dense_linear_solver : bool;
  generic_local_solver : bool;
  domains : int;
  best_effort : bool;
  deadline_seconds : float option;
  faults : Fault.spec option;
  plan_cache : bool;
}

let default_options = Compile_plan.default_options

type component_summary = Compile_plan.component_summary = {
  classification : string;
  channels : int;
  variables : int;
  min_time : float;
  eps2 : float;
}

type plan_stats = Compile_plan.plan_stats = {
  cache_enabled : bool;
  cache_hit : bool;
  store_enabled : bool;
  store_hit : bool;
  cache_hits : int;
  cache_misses : int;
  cache_discarded : int;
  build_seconds : float;
  solve_seconds : float;
}

type provenance = Compile_plan.provenance = Built | Cached | Stored

type result = Compile_plan.result = {
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
  diagnostics : Qturbo_analysis.Diagnostic.t list;
  failures : Failure.t list;
  degraded : bool;
  plan : plan_stats;
}

let stage_hook = Compile_plan.stage_hook

let b_tar_norm1 ~aais ~target ~t_tar =
  let channels = Aais.channels aais in
  let ls = Linear_system.build ~channels ~target ~t_tar in
  Array.fold_left (fun acc b -> acc +. Float.abs b) 0.0 ls.Linear_system.b_tar

let diagnostics_of ?t_max ~aais ~target ~t_tar ~ls ~comps () =
  let channels = Aais.channels aais in
  let vars = Aais.variables aais in
  Qturbo_analysis.Analysis.static_checks ~aais ~target ~t_tar ?t_max ()
  @ Qturbo_analysis.Structure.check ~channels ~variables:vars
      ~rows:
        (Compile_plan.structure_rows ~index:ls.Linear_system.index
           ~cells:ls.Linear_system.cells)
      ~comps:(Compile_plan.structure_comps comps)

let analyze ?t_max ~aais ~target ~t_tar () =
  let channels = Aais.channels aais in
  let ls = Linear_system.build ~channels ~target ~t_tar in
  let comps =
    Locality.decompose ~channels ~n_vars:(Array.length (Aais.variables aais))
  in
  diagnostics_of ?t_max ~aais ~target ~t_tar ~ls ~comps ()

let compile = Compile_plan.compile

let compile_batch ?(options = default_options) ?(strict = true) ?t_max
    ?(batch_domains = 1) ~aais jobs =
  (* the device part is shared across every job; plans are memoized per
     target shape — through the process-wide cache when it is enabled,
     through a batch-local table otherwise (a disabled cache must still
     not rebuild the front-end for jobs of equal shape, that is the
     whole point of batching) *)
  let device = lazy (Compile_plan.obtain_device ~options ~aais) in
  let local : (string, Compile_plan.t) Hashtbl.t = Hashtbl.create 8 in
  (* Phase 1 — validate and acquire plans sequentially in job order.
     All cache mutation (and therefore all hit/miss/discard accounting)
     happens here, so the counters each job samples are independent of
     the phase-2 schedule and a batch never double-builds a shape
     concurrently with itself. *)
  let prepared =
    List.map
      (fun (target, t_tar) ->
        Compile_plan.validate_t_tar ~who:"Compiler.compile" t_tar;
        if Pauli_sum.n_qubits target > aais.Aais.n_qubits then
          invalid_arg
            "Compiler.compile: target touches qubits outside the AAIS";
        let plan, provenance =
          if options.plan_cache then Compile_plan.obtain ~options ~aais ~target
          else begin
            let support = Compile_plan.support_of_target target in
            let key = Shape.of_support support in
            match Hashtbl.find_opt local key with
            | Some p -> (p, Compile_plan.Cached)
            | None ->
                let p =
                  Compile_plan.build ~options ~device:(Lazy.force device) ~aais
                    ~target_shape:support ()
                in
                Hashtbl.add local key p;
                (p, Compile_plan.Built)
          end
        in
        (target, t_tar, plan, provenance))
      jobs
  in
  (* Phase 2 — numeric back-ends over the shared plans on the work
     pool.  Results are collected by index and a failing job surfaces
     the smallest-index exception, so batch output is bitwise-identical
     to the sequential loop at any [batch_domains] (each job's inner
     parallel sections detect the worker context and run
     sequentially). *)
  Qturbo_par.Pool.parallel_map_list ~domains:batch_domains ~chunk:1
    (fun (target, t_tar, plan, provenance) ->
      Compile_plan.solve ~options ~strict ?t_max ~provenance ~plan
        ~coeffs:target ~t_tar ())
    prepared
