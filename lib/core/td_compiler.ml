module Failure = Qturbo_resilience.Failure
module Diagnostic = Qturbo_analysis.Diagnostic

type segment_result = {
  env : float array;
  duration : float;
  error_l1 : float;
  eps1 : float;
}

type result = {
  segments : segment_result list;
  t_sim : float;
  error_l1 : float;
  relative_error : float;
  binding_segment : int;
  compile_seconds : float;
  warnings : string list;
  diagnostics : Diagnostic.t list;
  failures : Failure.t list;
  degraded : bool;
  plan_shapes : int;
  plan_builds : int;
}

let validate ~t_tar ~segments =
  Compile_plan.validate_t_tar ~who:"Td_compiler.compile" t_tar;
  if segments <= 0 then
    raise
      (Diagnostic.Rejected
         [
           Diagnostic.make ~code:"QT016" ~severity:Diagnostic.Error
             ~subject:Diagnostic.System
             ~hint:"discretize into at least one segment"
             (Printf.sprintf
                "Td_compiler.compile: segments must be >= 1, got %d" segments);
         ])

let compile ?(options = Compiler.default_options) ?(strict = true) ?t_max ~aais
    ~model ~t_tar ~segments () =
  validate ~t_tar ~segments;
  let t0 = Qturbo_util.Clock.now () in
  let hams = Qturbo_models.Model.discretize model ~segments in
  (* one plan for the whole sweep, keyed by the canonical union support
     of every discretized segment.  Keying each segment by its own shape
     forked a second plan whenever a coefficient happened to cancel in
     one segment (the mis-chain quirk: K ≡ 2 mod 4 discretizations hit
     s = 0.75, which zeroes the end-atom Z terms) — the union shape pays
     one front-end build regardless, and segments missing a term simply
     instantiate that row with b_tar = 0.  When no segment drops a term
     the union equals every segment's own support. *)
  let support =
    List.sort_uniq Qturbo_pauli.Pauli_string.compare
      (List.concat_map Compile_plan.support_of_target hams)
  in
  let plan, provenance =
    Compile_plan.obtain_for_support ~options ~aais ~support
  in
  let r =
    Compile_plan.solve_segments ~options ~strict ?t_max ~plan ~targets:hams
      ~tau_tar:(t_tar /. float_of_int segments) ()
  in
  let segs = r.Compile_plan.Segments.segments in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 segs in
  let error_l1 = sum (fun s -> s.Compile_plan.Segments.error_l1) in
  let b_norm =
    List.fold_left
      (fun acc (s : Compile_plan.Segments.segment) ->
        Array.fold_left
          (fun acc b -> acc +. Float.abs b)
          acc s.system.Linear_system.b_tar)
      0.0 segs
  in
  {
    segments =
      List.map
        (fun (s : Compile_plan.Segments.segment) ->
          {
            env = s.env;
            duration = s.duration;
            error_l1 = s.error_l1;
            eps1 = s.eps1;
          })
        segs;
    t_sim = sum (fun s -> s.Compile_plan.Segments.duration);
    error_l1;
    relative_error =
      (if b_norm > 0.0 then error_l1 /. b_norm *. 100.0 else 0.0);
    binding_segment = r.binding_segment;
    compile_seconds = Qturbo_util.Clock.now () -. t0;
    warnings = r.warnings;
    diagnostics = r.diagnostics;
    failures = r.failures;
    degraded = r.degraded;
    plan_shapes = 1;
    plan_builds = (if provenance = Compile_plan.Built then 1 else 0);
  }
