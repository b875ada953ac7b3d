(* Tests for the sweep/batch layer and its supporting bugfixes: the
   strict JSON emission path (non-finite floats must render as null and
   every --json report must parse under a strict RFC 8259 parser), the
   translation-invariant structural cache key, and the parallel batch
   compile's bitwise equivalence at any worker count. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module Json = Qturbo_util.Json
module Fault = Qturbo_resilience.Fault

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }
let relaxed_plane = Device.with_geometry Device.Plane relaxed_line

let rydberg_for name n =
  let spec =
    match name with
    | "ising-cycle" | "ising-cycle+" -> relaxed_plane
    | _ -> relaxed_line
  in
  Rydberg.build ~spec ~n

let static_target name n =
  Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at
       (Qturbo_models.Benchmarks.by_name ~name ~n)
       ~s:0.0)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let check_bits_arr msg a b =
  if not (bits_equal a b) then Alcotest.failf "%s: arrays differ bitwise" msg

let check_bits msg a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %h vs %h" msg a b

(* ---- the strict JSON parser itself ---- *)

let test_json_parser_accepts () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("  false  ", Json.Bool false);
      ("42", Json.Number 42.0);
      ("-0.5e2", Json.Number (-50.0));
      ("1.25", Json.Number 1.25);
      ({|"hi"|}, Json.String "hi");
      ({|"a\"b\\c\nd"|}, Json.String "a\"b\\c\nd");
      ({|"A"|}, Json.String "A");
      ("[]", Json.Array []);
      ("[1,null]", Json.Array [ Json.Number 1.0; Json.Null ]);
      ("{}", Json.Object []);
      ( {|{"k":[{"v":true}]}|},
        Json.Object [ ("k", Json.Array [ Json.Object [ ("v", Json.Bool true) ] ]) ] );
    ]
  in
  List.iter
    (fun (text, expected) ->
      match Json.parse text with
      | Ok v when v = expected -> ()
      | Ok _ -> Alcotest.failf "%s: wrong value" text
      | Error e -> Alcotest.failf "%s: %s" text e)
    cases

let test_json_parser_rejects () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" text)
    [
      "";
      "nan";
      "NaN";
      "Infinity";
      "-inf";
      "01";
      "1.";
      ".5";
      "+1";
      "[1,]";
      "{\"a\":1,}";
      "{'a':1}";
      "\"unterminated";
      "\"ctrl\tchar\"";
      "{\"a\" 1}";
      "[1] garbage";
      "{} {}";
    ]

let test_float_lit () =
  List.iter
    (fun f ->
      match Json.parse (Json.float_lit f) with
      | Ok (Json.Number g) -> check_bits "round trip" f g
      | Ok _ | Error _ -> Alcotest.failf "float_lit %h did not round-trip" f)
    [ 0.0; -0.0; 1.0; -1.5; 1e-300; 0.1; Float.max_float; 3.14159265358979 ];
  List.iter
    (fun f ->
      Alcotest.(check string)
        "non-finite is null" "null" (Json.float_lit f))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- every report emission path stays strict-parseable ---- *)

let parse_report json =
  match Json.parse json with
  | Ok v -> v
  | Error e -> Alcotest.failf "report is not strict JSON: %s\n%s" e json

let test_clean_report_parses () =
  Compile_plan.clear_caches ();
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let report = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  let v = parse_report (Verifier.report_to_json report) in
  let plan = Json.member_exn "plan_cache" v in
  List.iter
    (fun field -> ignore (Json.member_exn field plan))
    [
      "enabled"; "hit"; "hits"; "misses"; "discarded"; "build_seconds";
      "solve_seconds";
    ];
  (match Json.member_exn "error_l1" v with
  | Json.Number _ -> ()
  | _ -> Alcotest.fail "clean error_l1 must be a number")

let test_degraded_report_parses () =
  (* total fault injection: the best-effort compile keeps non-converged
     components; the resulting report (failures, degraded flag, any
     non-finite metric) must still be strict JSON *)
  Compile_plan.clear_caches ();
  let ryd = rydberg_for "ising-chain" 5 in
  let target = static_target "ising-chain" 5 in
  let options =
    {
      Compiler.default_options with
      Compiler.best_effort = true;
      faults = Some (Fault.parse_exn "*=nan");
    }
  in
  let r = Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  Alcotest.(check bool) "degraded" true r.Compiler.degraded;
  let report = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  let v = parse_report (Verifier.report_to_json report) in
  (match Json.member_exn "degraded" v with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "degraded flag must be true in JSON");
  (match Json.member_exn "failures" v with
  | Json.Array (_ :: _) -> ()
  | _ -> Alcotest.fail "failures must be a non-empty array");
  (* the structured diagnostic / failure emitters parse standalone too *)
  (match Json.parse (Qturbo_resilience.Failure.list_to_json r.Compiler.failures) with
  | Ok (Json.Array _) -> ()
  | _ -> Alcotest.fail "Failure.list_to_json must be a strict JSON array");
  let diags =
    Compiler.analyze ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  match Json.parse (Qturbo_analysis.Diagnostic.list_to_json diags) with
  | Ok (Json.Object _ as v) -> (
      match Json.member_exn "diagnostics" v with
      | Json.Array _ -> ()
      | _ -> Alcotest.fail "diagnostics field must be an array")
  | _ -> Alcotest.fail "Diagnostic.list_to_json must be a strict JSON object"

let test_nonfinite_report_is_null () =
  (* synthesize the worst case directly: every float non-finite *)
  Compile_plan.clear_caches ();
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let report = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  let report =
    {
      report with
      Verifier.error_l1 = Float.nan;
      relative_error = Float.infinity;
      max_term_error = Float.neg_infinity;
      plan =
        {
          report.Verifier.plan with
          Compiler.build_seconds = Float.nan;
          solve_seconds = Float.infinity;
        };
    }
  in
  let v = parse_report (Verifier.report_to_json report) in
  List.iter
    (fun field ->
      match Json.member_exn field v with
      | Json.Null -> ()
      | _ -> Alcotest.failf "%s must render as null" field)
    [ "error_l1"; "relative_error"; "max_term_error" ];
  let plan = Json.member_exn "plan_cache" v in
  List.iter
    (fun field ->
      match Json.member_exn field plan with
      | Json.Null -> ()
      | _ -> Alcotest.failf "plan_cache.%s must render as null" field)
    [ "build_seconds"; "solve_seconds" ]

(* ---- cache-key canonicalization ---- *)

let key_of_ryd (ryd : Rydberg.t) target =
  Compile_plan.plan_key ~options:Compiler.default_options
    ~aais:ryd.Rydberg.aais ~target

let test_key_translation_invariant_cases () =
  List.iter
    (fun (spec, name, n) ->
      let target = static_target name n in
      let base = Rydberg.build_at ~origin:(0.0, 0.0) ~spec ~n in
      let same = Rydberg.build ~spec ~n in
      Alcotest.(check string)
        (name ^ " origin (0,0) is the default key")
        (key_of_ryd base target) (key_of_ryd same target);
      List.iter
        (fun origin ->
          let moved = Rydberg.build_at ~origin ~spec ~n in
          Alcotest.(check string)
            (Printf.sprintf "%s key invariant under (%g, %g)" name (fst origin)
               (snd origin))
            (key_of_ryd base target) (key_of_ryd moved target))
        [ (37.5, 0.0); (-12.25, 101.0); (0.0, -5.5); (250.0, 250.0) ])
    [
      (relaxed_line, "ising-chain", 4);
      (relaxed_plane, "ising-cycle", 5);
    ]

let test_key_translation_invariant_qcheck =
  QCheck.Test.make ~name:"shape key invariant under rigid translation"
    ~count:40
    QCheck.(pair (float_range (-300.0) 300.0) (float_range (-300.0) 300.0))
    (fun origin ->
      let target = static_target "ising-cycle" 5 in
      let base = Rydberg.build ~spec:relaxed_plane ~n:5 in
      let moved = Rydberg.build_at ~origin ~spec:relaxed_plane ~n:5 in
      String.equal (key_of_ryd base target) (key_of_ryd moved target))

let test_key_still_separates_devices () =
  (* anchoring must not over-merge: a different spacing scale (different
     initial guesses relative to the anchor) keeps a distinct key *)
  let target = static_target "ising-chain" 4 in
  let a = Rydberg.build ~spec:relaxed_line ~n:4 in
  let b =
    Rydberg.build
      ~spec:{ relaxed_line with Device.min_separation = 5.0 }
      ~n:4
  in
  if String.equal (key_of_ryd a target) (key_of_ryd b target) then
    Alcotest.fail "devices with different constraints must not share a key"

let test_key_term_order_invariant () =
  let ryd = rydberg_for "ising-chain" 3 in
  let terms =
    [
      (Pauli_string.two 0 Pauli.Z 1 Pauli.Z, 0.7);
      (Pauli_string.two 1 Pauli.Z 2 Pauli.Z, 0.3);
      (Pauli_string.single 0 Pauli.X, 0.45);
      (Pauli_string.single 2 Pauli.X, 0.2);
    ]
  in
  let sum_of order =
    List.fold_left (fun acc (s, c) -> Pauli_sum.add_term acc s c) Pauli_sum.zero
      order
  in
  let base = key_of_ryd ryd (sum_of terms) in
  List.iter
    (fun order ->
      Alcotest.(check string)
        "insertion order does not change the key" base
        (key_of_ryd ryd (sum_of order)))
    [ List.rev terms; List.tl terms @ [ List.hd terms ] ]

(* ---- batch equivalence at any worker count ---- *)

let series n k =
  List.init k (fun i ->
      let j = 0.2 +. (0.11 *. float_of_int i)
      and h = 0.45 +. (0.07 *. float_of_int i) in
      let model = Qturbo_models.Benchmarks.ising_cycle ~j ~h ~n () in
      ( Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at model ~s:0.0),
        0.5 +. (0.1 *. float_of_int i) ))

let check_results_bitwise msg expected actual =
  Alcotest.(check int) (msg ^ " count") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i ((e : Compiler.result), (a : Compiler.result)) ->
      let tag = Printf.sprintf "%s job %d" msg i in
      check_bits_arr (tag ^ " env") e.Compiler.env a.Compiler.env;
      check_bits (tag ^ " t_sim") e.Compiler.t_sim a.Compiler.t_sim;
      check_bits (tag ^ " error_l1") e.Compiler.error_l1 a.Compiler.error_l1;
      Alcotest.(check bool)
        (tag ^ " degraded") e.Compiler.degraded a.Compiler.degraded;
      Alcotest.(check int)
        (tag ^ " failures")
        (List.length e.Compiler.failures)
        (List.length a.Compiler.failures))
    (List.combine expected actual)

let run_batch ~options ~batch_domains jobs =
  Compile_plan.clear_caches ();
  let ryd = Rydberg.build ~spec:relaxed_plane ~n:5 in
  Compiler.compile_batch ~options ~batch_domains ~aais:ryd.Rydberg.aais jobs

let test_batch_bitwise_across_domains () =
  let jobs = series 5 8 in
  let options = { Compiler.default_options with Compiler.domains = 1 } in
  let seq = run_batch ~options ~batch_domains:1 jobs in
  let par = run_batch ~options ~batch_domains:4 jobs in
  check_results_bitwise "domains 1 vs 4" seq par;
  (* and the batch equals job-by-job compiles *)
  Compile_plan.clear_caches ();
  let ryd = Rydberg.build ~spec:relaxed_plane ~n:5 in
  let individual =
    List.map
      (fun (target, t_tar) ->
        Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar ())
      jobs
  in
  check_results_bitwise "batch vs individual" individual par

let test_batch_bitwise_under_faults () =
  (* injected faults are deterministic per (site, component), so even a
     degraded batch is identical at any worker count *)
  let jobs = series 5 6 in
  let options =
    {
      Compiler.default_options with
      Compiler.domains = 1;
      best_effort = true;
      faults = Some (Fault.parse_exn "lm=nan");
    }
  in
  let seq = run_batch ~options ~batch_domains:1 jobs in
  let par = run_batch ~options ~batch_domains:4 jobs in
  List.iter
    (fun (r : Compiler.result) ->
      Alcotest.(check bool) "faults recorded" true (r.Compiler.failures <> []))
    seq;
  check_results_bitwise "faulted domains 1 vs 4" seq par

let test_batch_counts_one_miss () =
  let jobs = series 5 16 in
  let options = { Compiler.default_options with Compiler.domains = 1 } in
  let results = run_batch ~options ~batch_domains:4 jobs in
  let s = Compile_plan.cache_stats () in
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "hits" 15 s.Plan_cache.hits;
  List.iteri
    (fun i (r : Compiler.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d cache_hit" i)
        (i > 0) r.Compiler.plan.Compiler.cache_hit)
    results

(* ---- the time-dependent sweep shares one plan ---- *)

let test_td_segment_sweep_single_miss () =
  Compile_plan.clear_caches ();
  let n = 5 in
  let ryd = Rydberg.build ~spec:relaxed_line ~n in
  let model = Qturbo_models.Benchmarks.mis_chain ~n () in
  let builds = ref 0 in
  List.iter
    (fun segments ->
      let td =
        Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "segments=%d shapes" segments)
        1 td.Td_compiler.plan_shapes;
      builds := !builds + td.Td_compiler.plan_builds)
    (* 6 and 10 are the K ≡ 2 (mod 4) counts whose midpoint grid hits
       s = 0.75 exactly, cancelling the mis-chain ZZ coefficients there:
       under union-support planning they must not fork a second shape. *)
    [ 3; 4; 5; 6; 7; 8; 10; 16 ];
  Alcotest.(check int) "one front-end build across the sweep" 1 !builds;
  let s = Compile_plan.cache_stats () in
  Alcotest.(check int) "one global miss" 1 s.Plan_cache.misses

(* ---- the time-dependent batch ---- *)

(* unsorted and uneven, so longest-first dispatch reorders the jobs; K=6
   hits the s = 0.75 quirk *)
let td_jobs =
  List.concat_map
    (fun segments -> List.map (fun t -> (segments, t)) [ 1.0; 1.4 ])
    [ 32; 4; 16; 8; 6 ]

let td_setup () =
  let n = 5 in
  ( (Rydberg.build ~spec:relaxed_line ~n).Rydberg.aais,
    Qturbo_models.Benchmarks.mis_chain ~n () )

let td_batch ?(options = Compiler.default_options) ~batch_domains jobs =
  Compile_plan.clear_caches ();
  let aais, model = td_setup () in
  Td_compiler.compile_batch ~options ~batch_domains ~aais ~model jobs

(* what the sequential loop over [Td_compiler.compile] gives: each job's
   result or the first job's exception *)
let td_sequential ?(options = Compiler.default_options) jobs =
  Compile_plan.clear_caches ();
  let aais, model = td_setup () in
  List.map
    (fun (segments, t_tar) ->
      Td_compiler.compile ~options ~aais ~model ~t_tar ~segments ())
    jobs

let check_td_bitwise msg expected actual =
  Alcotest.(check int) (msg ^ " count") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i ((e : Td_compiler.result), (a : Td_compiler.result)) ->
      let tag = Printf.sprintf "%s job %d" msg i in
      Alcotest.(check int)
        (tag ^ " segments")
        (List.length e.Td_compiler.segments)
        (List.length a.Td_compiler.segments);
      List.iteri
        (fun k
             ((es : Td_compiler.segment_result),
              (as_ : Td_compiler.segment_result)) ->
          let tag = Printf.sprintf "%s segment %d" tag k in
          check_bits_arr (tag ^ " env") es.Td_compiler.env as_.Td_compiler.env;
          check_bits (tag ^ " duration") es.Td_compiler.duration
            as_.Td_compiler.duration;
          check_bits (tag ^ " error_l1") es.Td_compiler.error_l1
            as_.Td_compiler.error_l1)
        (List.combine e.Td_compiler.segments a.Td_compiler.segments);
      check_bits (tag ^ " t_sim") e.Td_compiler.t_sim a.Td_compiler.t_sim;
      check_bits (tag ^ " relative_error") e.Td_compiler.relative_error
        a.Td_compiler.relative_error;
      Alcotest.(check int)
        (tag ^ " binding_segment") e.Td_compiler.binding_segment
        a.Td_compiler.binding_segment;
      Alcotest.(check int)
        (tag ^ " plan_builds") e.Td_compiler.plan_builds
        a.Td_compiler.plan_builds;
      Alcotest.(check int)
        (tag ^ " plan_shapes") e.Td_compiler.plan_shapes
        a.Td_compiler.plan_shapes;
      Alcotest.(check bool)
        (tag ^ " degraded") e.Td_compiler.degraded a.Td_compiler.degraded;
      Alcotest.(check (list string))
        (tag ^ " failures")
        (List.map Qturbo_resilience.Failure.to_string e.Td_compiler.failures)
        (List.map Qturbo_resilience.Failure.to_string a.Td_compiler.failures))
    (List.combine expected actual)

let test_td_batch_bitwise () =
  let seq = td_sequential td_jobs in
  let seq_stats = Compile_plan.cache_stats () in
  List.iter
    (fun batch_domains ->
      let batch = td_batch ~batch_domains td_jobs in
      let msg = Printf.sprintf "batch_domains %d" batch_domains in
      check_td_bitwise msg seq batch;
      if Compile_plan.cache_stats () <> seq_stats then
        Alcotest.failf "%s: cache stats differ from the sequential loop" msg)
    [ 1; 2; 4 ]

let all_nan = Fault.parse_exn "*=nan"

let outcome f =
  match f () with
  | _ -> "ok"
  | exception Qturbo_resilience.Failure.Failed fs ->
      String.concat "; "
        ("Failed" :: List.map Qturbo_resilience.Failure.to_string fs)
  | exception Qturbo_analysis.Diagnostic.Rejected ds ->
      String.concat "; "
        ("Rejected" :: List.map Qturbo_analysis.Diagnostic.to_string ds)

let test_td_batch_failure_order () =
  let options =
    { Compiler.default_options with Compiler.faults = Some all_nan }
  in
  let jobs = [ (4, 1.0); (32, 1.0); (8, 1.0) ] in
  let first = outcome (fun () -> td_sequential ~options jobs) in
  Alcotest.(check bool) "strict solves fail" true (first <> "ok");
  Alcotest.(check string) "4 workers raise the sequential loop's failure"
    first
    (outcome (fun () -> td_batch ~options ~batch_domains:4 jobs));
  (* a model whose blockade coefficient turns negative for s < 0.3: the
     one-segment job 0 passes the precheck and fails in the faulted
     solve, while the K=32 job, dispatched first, is rejected by its
     precheck.  Job 0's failure must still win. *)
  let aais, _ = td_setup () in
  let model =
    Qturbo_models.Model.driven ~name:"mis-chain-flip" ~n:5 (fun s ->
        Qturbo_models.Model.hamiltonian_at
          (Qturbo_models.Benchmarks.mis_chain ~alpha:(s -. 0.3) ~n:5 ())
          ~s)
  in
  let jobs = [ (1, 1.0); (32, 1.0) ] in
  let batch batch_domains () =
    Compile_plan.clear_caches ();
    Td_compiler.compile_batch ~options ~batch_domains ~aais ~model jobs
  in
  let sequential jobs () =
    List.map
      (fun (segments, t_tar) ->
        Td_compiler.compile ~options ~aais ~model ~t_tar ~segments ())
      jobs
  in
  let first = outcome (sequential jobs) in
  Alcotest.(check bool) "the longest job fails differently" true
    (outcome (sequential [ (32, 1.0) ]) <> first);
  List.iter
    (fun batch_domains ->
      Alcotest.(check string)
        (Printf.sprintf "job order beats dispatch order at %d" batch_domains)
        first
        (outcome (batch batch_domains)))
    [ 1; 4 ];
  (* best effort: the same degraded results at any worker count *)
  let options = { options with Compiler.best_effort = true } in
  let jobs = [ (4, 1.0); (32, 1.0); (8, 1.0) ] in
  let seq = td_batch ~options ~batch_domains:1 jobs in
  List.iter
    (fun (r : Td_compiler.result) ->
      Alcotest.(check bool) "degraded" true r.Td_compiler.degraded)
    seq;
  check_td_bitwise "best-effort 1 vs 4" seq
    (td_batch ~options ~batch_domains:4 jobs)

let test_td_batch_rejects_up_front () =
  let stages = ref [] in
  let saved = !Compile_plan.stage_hook in
  Compile_plan.stage_hook := (fun s -> stages := s :: !stages);
  Fun.protect
    ~finally:(fun () -> Compile_plan.stage_hook := saved)
    (fun () ->
      match td_batch ~batch_domains:4 [ (4, 1.0); (8, 1.0); (0, 1.0) ] with
      | _ -> Alcotest.fail "segments = 0 must be rejected"
      | exception Qturbo_analysis.Diagnostic.Rejected ds ->
          Alcotest.(check (list string))
            "QT016" [ "QT016" ]
            (List.map (fun d -> d.Qturbo_analysis.Diagnostic.code) ds);
          Alcotest.(check bool)
            "no solve ran" false
            (List.mem "precheck" !stages))

(* ---- one device-key render per batch ---- *)

(* Each reference compile runs on a freshly built AAIS, so it renders
   its own device key — one render per job, as before the key memo —
   while plans are still shared through the cache. *)
let renders () = (Compile_plan.device_key_stats ()).Compile_plan.renders

let test_static_batch_renders_once () =
  let jobs = series 5 16 in
  let options = { Compiler.default_options with Compiler.domains = 1 } in
  Compile_plan.clear_caches ();
  let per_job =
    List.map
      (fun (target, t_tar) ->
        let aais = (Rydberg.build ~spec:relaxed_plane ~n:5).Rydberg.aais in
        Compiler.compile ~options ~aais ~target ~t_tar ())
      jobs
  in
  Alcotest.(check int) "per-job compiles render per job" 16 (renders ());
  let batch = run_batch ~options ~batch_domains:2 jobs in
  Alcotest.(check int) "the batch renders once" 1 (renders ());
  check_results_bitwise "batch vs per-job renders" per_job batch

let test_td_batch_renders_once () =
  Compile_plan.clear_caches ();
  let per_job =
    List.map
      (fun (segments, t_tar) ->
        let aais, model = td_setup () in
        Td_compiler.compile ~aais ~model ~t_tar ~segments ())
      td_jobs
  in
  Alcotest.(check int) "per-job compiles render per job"
    (List.length td_jobs) (renders ());
  let batch = td_batch ~batch_domains:2 td_jobs in
  Alcotest.(check int) "the batch renders once" 1 (renders ());
  check_td_bitwise "td batch vs per-job renders" per_job batch

(* ---- the committed perf trajectory ---- *)

(* bench/trajectory.jsonl: one line per performance change, each a
   strict-JSON object carrying the provenance and, per benchmark
   workload, the parent's and the change's median and interquartile
   range of every end-to-end metric named in BENCHMARK.json; null
   wherever a figure was not recorded. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let repo_file name =
  (* dune runs tests from _build/default/test *)
  List.find Sys.file_exists [ Filename.concat ".." name; name ]

let test_trajectory_schema () =
  let spec =
    Json.parse_exn
      (String.concat "\n" (read_lines (repo_file "BENCHMARK.json")))
  in
  let names field =
    match Json.member_exn field spec with
    | Json.Array items ->
        List.map
          (fun m ->
            match Json.member_exn "name" m with
            | Json.String s -> s
            | _ -> Alcotest.fail "BENCHMARK.json: name is not a string")
          items
    | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" field
  in
  let workloads = names "workloads" and metrics = names "end_to_end" in
  let fail line fmt =
    Printf.ksprintf (fun m -> Alcotest.failf "line %d: %s" line m) fmt
  in
  let fields line ~what keys = function
    | Json.Object kv ->
        let got = List.map fst kv in
        if List.sort compare got <> List.sort compare keys then
          fail line "%s has fields [%s], expected [%s]" what
            (String.concat "," got) (String.concat "," keys);
        kv
    | _ -> fail line "%s is not an object" what
  in
  let is_int = function
    | Json.Number f -> Float.is_integer f
    | _ -> false
  in
  let nullable ok = function Json.Null -> true | v -> ok v in
  let check line what ok v = if not (ok v) then fail line "bad %s" what in
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (read_lines (repo_file "bench/trajectory.jsonl"))
  in
  Alcotest.(check bool) "has lines" true (lines <> []);
  let last_pr = ref 0 and backfilled = ref [] in
  List.iteri
    (fun i text ->
      let line = i + 1 in
      let v =
        match Json.parse text with
        | Ok v -> v
        | Error msg -> fail line "not strict JSON: %s" msg
      in
      let top =
        fields line ~what:"line"
          [ "pr"; "title"; "backfilled"; "provenance"; "workloads" ] v
      in
      let pr =
        match List.assoc "pr" top with
        | Json.Number f when Float.is_integer f -> int_of_float f
        | _ -> fail line "pr is not an integer"
      in
      if pr <= !last_pr then fail line "pr %d does not increase" pr;
      last_pr := pr;
      check line "title" (function Json.String _ -> true | _ -> false)
        (List.assoc "title" top);
      (match List.assoc "backfilled" top with
      | Json.Bool true -> backfilled := pr :: !backfilled
      | Json.Bool false -> ()
      | _ -> fail line "backfilled is not a bool");
      let prov =
        fields line ~what:"provenance" [ "cores"; "ocaml"; "rev"; "parent_rev" ]
          (List.assoc "provenance" top)
      in
      let str = function Json.String _ -> true | _ -> false in
      check line "cores" (nullable is_int) (List.assoc "cores" prov);
      check line "ocaml" (nullable str) (List.assoc "ocaml" prov);
      check line "rev" (nullable str) (List.assoc "rev" prov);
      check line "parent_rev" str (List.assoc "parent_rev" prov);
      let per_workload =
        fields line ~what:"workloads" workloads (List.assoc "workloads" top)
      in
      List.iter
        (fun (w, wv) ->
          let kv = fields line ~what:w [ "pairs"; "seeds"; "metrics" ] wv in
          check line (w ^ " pairs") (nullable is_int) (List.assoc "pairs" kv);
          check line (w ^ " seeds")
            (nullable (function
              | Json.Array seeds -> List.for_all is_int seeds
              | _ -> false))
            (List.assoc "seeds" kv);
          let ms =
            fields line ~what:(w ^ " metrics") metrics (List.assoc "metrics" kv)
          in
          List.iter
            (fun (m, mv) ->
              let sides =
                fields line ~what:(w ^ "." ^ m) [ "parent"; "change" ] mv
              in
              List.iter
                (fun (side, sv) ->
                  let what = String.concat "." [ w; m; side ] in
                  let kv = fields line ~what [ "median"; "iqr" ] sv in
                  let num = function Json.Number _ -> true | _ -> false in
                  check line (what ^ ".median") (nullable num)
                    (List.assoc "median" kv);
                  check line (what ^ ".iqr")
                    (nullable (function
                      | Json.Array [ Json.Number lo; Json.Number hi ] -> lo <= hi
                      | _ -> false))
                    (List.assoc "iqr" kv))
                sides)
            ms)
        per_workload)
    lines;
  Alcotest.(check (list int)) "PRs 13-15 are backfilled" [ 13; 14; 15 ]
    (List.sort compare !backfilled)

let () =
  Alcotest.run "sweep"
    [
      ( "json",
        [
          Alcotest.test_case "parser accepts" `Quick test_json_parser_accepts;
          Alcotest.test_case "parser rejects" `Quick test_json_parser_rejects;
          Alcotest.test_case "float_lit" `Quick test_float_lit;
          Alcotest.test_case "clean report parses" `Quick
            test_clean_report_parses;
          Alcotest.test_case "degraded report parses" `Quick
            test_degraded_report_parses;
          Alcotest.test_case "non-finite floats render null" `Quick
            test_nonfinite_report_is_null;
        ] );
      ( "cache-key",
        [
          Alcotest.test_case "translation invariant" `Quick
            test_key_translation_invariant_cases;
          QCheck_alcotest.to_alcotest test_key_translation_invariant_qcheck;
          Alcotest.test_case "still separates devices" `Quick
            test_key_still_separates_devices;
          Alcotest.test_case "term order invariant" `Quick
            test_key_term_order_invariant;
        ] );
      ( "batch",
        [
          Alcotest.test_case "bitwise across domains" `Quick
            test_batch_bitwise_across_domains;
          Alcotest.test_case "bitwise under faults" `Quick
            test_batch_bitwise_under_faults;
          Alcotest.test_case "one miss for 16 jobs" `Quick
            test_batch_counts_one_miss;
          Alcotest.test_case "td segment sweep single miss" `Quick
            test_td_segment_sweep_single_miss;
        ] );
      ( "renders",
        [
          Alcotest.test_case "static batch renders once" `Quick
            test_static_batch_renders_once;
          Alcotest.test_case "td batch renders once" `Quick
            test_td_batch_renders_once;
        ] );
      ( "bench",
        [
          Alcotest.test_case "trajectory.jsonl schema" `Quick
            test_trajectory_schema;
        ] );
      ( "td-batch",
        [
          Alcotest.test_case "bitwise at 1, 2, 4 workers" `Quick
            test_td_batch_bitwise;
          Alcotest.test_case "first job's failure wins" `Quick
            test_td_batch_failure_order;
          Alcotest.test_case "rejects before solving" `Quick
            test_td_batch_rejects_up_front;
        ] );
    ]
