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

(* One job's phase-1 output: its discretization and the plan every
   segment compiles against, with the time it took to get them. *)
type acquired = {
  hams : Qturbo_pauli.Pauli_sum.t list;
  t_tar : float;
  plan : Compile_plan.t;
  provenance : Compile_plan.provenance;
  acquire_seconds : float;
}

let acquire ~options ~aais ~model (segments, t_tar) =
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
  {
    hams;
    t_tar;
    plan;
    provenance;
    acquire_seconds = Qturbo_util.Clock.now () -. t0;
  }

let solve ~options ~strict ?t_max a =
  let t0 = Qturbo_util.Clock.now () in
  let segments = List.length a.hams in
  let r =
    Compile_plan.solve_segments ~options ~strict ?t_max ~plan:a.plan
      ~targets:a.hams
      ~tau_tar:(a.t_tar /. float_of_int segments)
      ()
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
    compile_seconds = a.acquire_seconds +. (Qturbo_util.Clock.now () -. t0);
    warnings = r.warnings;
    diagnostics = r.diagnostics;
    failures = r.failures;
    degraded = r.degraded;
    plan_shapes = 1;
    plan_builds = (if a.provenance = Compile_plan.Built then 1 else 0);
  }

let compile_batch ?(options = Compiler.default_options) ?(strict = true) ?t_max
    ?(batch_domains = 1) ~aais ~model jobs =
  (* Phase 1 — validate, discretize and acquire plans sequentially in
     job order, exactly like [Compiler.compile_batch]: all cache
     mutation happens here, so hit/miss accounting and [plan_builds]
     match the sequential loop, and a rejected job raises before any
     solve runs. *)
  let acquired =
    Array.of_list (List.map (acquire ~options ~aais ~model) jobs)
  in
  let n = Array.length acquired in
  (* Phase 2 — the solves on the work pool, longest first: a job costs
     roughly in proportion to its segment count, so dispatching the
     largest first keeps a short job from being the last one started.
     Each job's outcome is captured and the batch re-raises in job
     order, so the exception is the one the sequential loop would have
     raised first.  Once some job has failed, jobs after it in job
     order are skipped: they could not change which exception wins. *)
  let order = Array.init n Fun.id in
  let size i = List.length acquired.(i).hams in
  Array.stable_sort (fun i j -> Int.compare (size j) (size i)) order;
  let first_failed = Atomic.make n in
  let rec lower i =
    let cur = Atomic.get first_failed in
    if i < cur && not (Atomic.compare_and_set first_failed cur i) then lower i
  in
  let outcomes =
    Qturbo_par.Pool.parallel_map ~domains:batch_domains ~chunk:1
      (fun i ->
        if i > Atomic.get first_failed then None
        else
          match solve ~options ~strict ?t_max acquired.(i) with
          | r -> Some (Ok r)
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              lower i;
              Some (Error (e, bt)))
      order
  in
  let by_job = Array.make n None in
  Array.iteri (fun k i -> by_job.(i) <- outcomes.(k)) order;
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
    by_job;
  Array.to_list
    (Array.map (function Some (Ok r) -> r | _ -> assert false) by_job)

let compile ?options ?strict ?t_max ~aais ~model ~t_tar ~segments () =
  List.hd
    (compile_batch ?options ?strict ?t_max ~aais ~model [ (segments, t_tar) ])
