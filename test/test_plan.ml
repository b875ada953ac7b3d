(* Tests for the staged compile pipeline: Compile_plan artifacts, the
   structural plan cache, golden equivalence between the plan-based
   entry points, and the QT016 input validation. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }
let relaxed_plane = Device.with_geometry Device.Plane relaxed_line

let rydberg_for name n =
  let spec =
    match name with "ising-cycle" | "ising-cycle+" -> relaxed_plane | _ -> relaxed_line
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

(* ---- golden equivalence: td(1 segment) == static compile ---- *)

(* The single-segment time-dependent compile delegates to the staged
   static pipeline, so the two entry points must agree bitwise — on the
   §5 worked example and on Fig. 3 benchmarks. *)
let test_td_single_segment_golden () =
  List.iter
    (fun (name, n) ->
      let ryd = rydberg_for name n in
      let model = Qturbo_models.Benchmarks.by_name ~name ~n in
      let target = static_target name n in
      let r =
        Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
      in
      let td =
        Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0
          ~segments:1 ()
      in
      (match td.Td_compiler.segments with
      | [ s ] ->
          check_bits_arr (name ^ " env") r.Compiler.env s.Td_compiler.env;
          check_bits (name ^ " duration") r.Compiler.t_sim s.Td_compiler.duration;
          check_bits (name ^ " seg error") r.Compiler.error_l1
            s.Td_compiler.error_l1;
          check_bits (name ^ " eps1") r.Compiler.eps1 s.Td_compiler.eps1
      | other -> Alcotest.failf "%s: %d segments" name (List.length other));
      check_bits (name ^ " t_sim") r.Compiler.t_sim td.Td_compiler.t_sim;
      check_bits (name ^ " error_l1") r.Compiler.error_l1
        td.Td_compiler.error_l1;
      check_bits (name ^ " relative") r.Compiler.relative_error
        td.Td_compiler.relative_error;
      Alcotest.(check int) (name ^ " binding") 0 td.Td_compiler.binding_segment)
    [ ("ising-chain", 3); ("ising-cycle", 5); ("kitaev", 5) ]

(* ---- QT016 validation ---- *)

let test_compiler_rejects_nonfinite_t_tar () =
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  List.iter
    (fun t_tar ->
      match
        Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar ()
      with
      | exception Qturbo_analysis.Diagnostic.Rejected [ d ] ->
          Alcotest.(check string) "code" "QT016" d.Qturbo_analysis.Diagnostic.code
      | exception e ->
          Alcotest.failf "expected Rejected [QT016], got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Rejected [QT016], got a result")
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- structural keys ---- *)

let test_plan_key_ignores_coefficients () =
  let ryd = rydberg_for "ising-chain" 5 in
  let options = Compiler.default_options in
  let base =
    Compile_plan.plan_key ~options ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  (* a different support on the same device must key differently *)
  let smaller =
    Compile_plan.plan_key ~options ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 3)
  in
  Alcotest.(check bool) "support contributes" true (base <> smaller);
  (* classification-affecting options contribute too *)
  let generic =
    Compile_plan.plan_key
      ~options:{ options with Compiler.generic_local_solver = true }
      ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  Alcotest.(check bool) "options contribute" true (base <> generic);
  (* a different device fingerprint (same channels structurally scaled)
     must key differently *)
  let tighter =
    Rydberg.build
      ~spec:{ relaxed_line with Device.min_separation = 7.7 }
      ~n:5
  in
  let other =
    Compile_plan.plan_key ~options ~aais:tighter.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  Alcotest.(check bool) "device fingerprint contributes" true (base <> other)

let prop_plan_key_coefficient_invariant =
  QCheck.Test.make ~name:"plan key is coefficient-invariant" ~count:25
    QCheck.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (fun (j, h) ->
      let ryd = rydberg_for "ising-chain" 4 in
      let target ~j ~h =
        Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at
             (Qturbo_models.Benchmarks.ising_chain ~j ~h ~n:4 ())
             ~s:0.0)
      in
      let options = Compiler.default_options in
      let key = Compile_plan.plan_key ~options ~aais:ryd.Rydberg.aais in
      String.equal
        (key ~target:(target ~j ~h))
        (key ~target:(target ~j:1.0 ~h:1.0)))

(* ---- cached vs cold solves are bitwise-identical ---- *)

let cold_vs_warm ~domains (j, h) =
  let ryd = rydberg_for "ising-chain" 4 in
  let target =
    Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_chain ~j ~h ~n:4 ())
         ~s:0.0)
  in
  let options = { Compiler.default_options with Compiler.domains } in
  Compile_plan.clear_caches ();
  let cold =
    Compiler.compile
      ~options:{ options with Compiler.plan_cache = false }
      ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  (* prime the cache, then solve against the cached plan *)
  ignore (Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ());
  let warm =
    Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  if not warm.Compiler.plan.Compiler.cache_hit then
    Alcotest.fail "warm compile missed the cache";
  bits_equal cold.Compiler.env warm.Compiler.env
  && bits_equal cold.Compiler.alpha_achieved warm.Compiler.alpha_achieved
  && Int64.equal
       (Int64.bits_of_float cold.Compiler.t_sim)
       (Int64.bits_of_float warm.Compiler.t_sim)
  && Int64.equal
       (Int64.bits_of_float cold.Compiler.error_l1)
       (Int64.bits_of_float warm.Compiler.error_l1)

let prop_cached_solve_bitwise_domains_1 =
  QCheck.Test.make ~name:"cached vs cold solve, 1 domain" ~count:8
    QCheck.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (cold_vs_warm ~domains:1)

let prop_cached_solve_bitwise_domains_4 =
  QCheck.Test.make ~name:"cached vs cold solve, 4 domains" ~count:8
    QCheck.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (cold_vs_warm ~domains:4)

(* ---- the LRU cache ---- *)

let test_plan_cache_lru () =
  Alcotest.check_raises "capacity" (Invalid_argument "Plan_cache.create: capacity < 1")
    (fun () -> ignore (Plan_cache.create ~capacity:0));
  let c = Plan_cache.create ~capacity:2 in
  Alcotest.(check (option int)) "miss" None (Plan_cache.find c "a");
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Plan_cache.find c "a");
  (* b is now least recently used; inserting c evicts it *)
  Plan_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a resident" (Some 1) (Plan_cache.find c "a");
  Alcotest.(check (option int)) "c resident" (Some 3) (Plan_cache.find c "c");
  (* re-adding a resident key keeps the resident value — and counts the
     dropped fresh build instead of silently discarding it *)
  Plan_cache.add c "a" 99;
  Alcotest.(check (option int)) "resident kept" (Some 1) (Plan_cache.find c "a");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Plan_cache.evictions;
  Alcotest.(check int) "size" 2 s.Plan_cache.size;
  Alcotest.(check int) "hits" 4 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 2 s.Plan_cache.misses;
  Alcotest.(check int) "discarded" 1 s.Plan_cache.discarded;
  Plan_cache.clear c;
  let s = Plan_cache.stats c in
  Alcotest.(check int) "cleared size" 0 s.Plan_cache.size;
  Alcotest.(check int) "cleared hits" 0 s.Plan_cache.hits;
  Alcotest.(check int) "cleared misses" 0 s.Plan_cache.misses;
  Alcotest.(check int) "cleared discarded" 0 s.Plan_cache.discarded

(* An evicted key must not outlive its entry: plan keys are exact
   structural strings (hundreds of kilobytes on large devices), so a
   cache that kept any record of every key it ever saw would grow
   without bound in a long-running daemon. *)
let test_plan_cache_drops_evicted_keys () =
  let c = Plan_cache.create ~capacity:2 in
  let n = 50 in
  let keys = Weak.create n in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "shape-%d:%s" i (String.make 256 'k') in
    Weak.set keys i (Some key);
    Alcotest.(check (option int)) "fresh key misses" None (Plan_cache.find c key);
    Plan_cache.add c key i
  done;
  Gc.full_major ();
  let s = Plan_cache.stats c in
  Alcotest.(check int) "resident" 2 s.Plan_cache.size;
  Alcotest.(check int) "evictions" (n - 2) s.Plan_cache.evictions;
  for i = 0 to n - 3 do
    if Weak.check keys i then
      Alcotest.failf "evicted key %d is still reachable from the cache" i
  done;
  (* the two residents are held by the cache, so the weak slots work *)
  Alcotest.(check bool) "resident keys live" true
    (Weak.check keys (n - 2) && Weak.check keys (n - 1))

(* ---- stage hooks and cache plumbing ---- *)

let with_stages f =
  let stages = ref [] in
  Compiler.stage_hook := (fun s -> stages := s :: !stages);
  Fun.protect
    ~finally:(fun () -> Compiler.stage_hook := fun _ -> ())
    (fun () ->
      f ();
      List.rev !stages)

let test_stage_hook_plan_build () =
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  let compile () =
    ignore (Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ())
  in
  Compile_plan.clear_caches ();
  let cold = with_stages compile in
  Alcotest.(check bool) "cold builds a plan" true (List.mem "plan-build" cold);
  Alcotest.(check bool) "cold misses" false (List.mem "plan-cache-hit" cold);
  (* build precedes the solver stages *)
  let rec before a b = function
    | [] -> false
    | s :: rest -> if s = a then List.mem b rest else before a b rest
  in
  Alcotest.(check bool) "build before precheck" true
    (before "plan-build" "precheck" cold);
  let warm = with_stages compile in
  Alcotest.(check bool) "warm hits" true (List.mem "plan-cache-hit" warm);
  Alcotest.(check bool) "warm skips the build" false (List.mem "plan-build" warm)

let test_cache_stats_counters () =
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  Compile_plan.clear_caches ();
  let r1 = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  Alcotest.(check bool) "first is a miss" false r1.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "first records a build" true
    (r1.Compiler.plan.Compiler.build_seconds > 0.0);
  let r2 = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:2.0 () in
  Alcotest.(check bool) "same shape hits" true r2.Compiler.plan.Compiler.cache_hit;
  check_bits "hit build cost is zero" 0.0 r2.Compiler.plan.Compiler.build_seconds;
  Alcotest.(check int) "hit counter" 1 r2.Compiler.plan.Compiler.cache_hits;
  Alcotest.(check int) "miss counter" 1 r2.Compiler.plan.Compiler.cache_misses;
  let s = Compile_plan.cache_stats () in
  Alcotest.(check int) "plan cache size" 1 s.Plan_cache.size;
  let d = Compile_plan.device_cache_stats () in
  Alcotest.(check bool) "device cached" true (d.Plan_cache.size >= 1);
  (* disabling the cache leaves the counters untouched *)
  let r3 =
    Compiler.compile
      ~options:{ Compiler.default_options with Compiler.plan_cache = false }
      ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "disabled: no hit" false r3.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "disabled flag carried" false
    r3.Compiler.plan.Compiler.cache_enabled;
  let s' = Compile_plan.cache_stats () in
  Alcotest.(check int) "no extra miss" s.Plan_cache.misses s'.Plan_cache.misses

let test_device_plan_shared_across_shapes () =
  let ryd = rydberg_for "ising-chain" 5 in
  let options = Compiler.default_options in
  Compile_plan.clear_caches ();
  let p3, _ =
    Compile_plan.obtain ~options ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 3)
  in
  let p5, _ =
    Compile_plan.obtain ~options ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  Alcotest.(check bool) "distinct plans" true (p3 != p5);
  Alcotest.(check bool) "shared device part" true
    (p3.Compile_plan.device == p5.Compile_plan.device)

(* ---- compile_batch ---- *)

let test_compile_batch_matches_individual () =
  let ryd = rydberg_for "ising-chain" 4 in
  let target ~j =
    Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_chain ~j ~n:4 ())
         ~s:0.0)
  in
  let jobs = [ (target ~j:0.5, 1.0); (target ~j:1.5, 0.7); (target ~j:2.5, 1.3) ] in
  List.iter
    (fun plan_cache ->
      let options = { Compiler.default_options with Compiler.plan_cache } in
      Compile_plan.clear_caches ();
      let batch = Compiler.compile_batch ~options ~aais:ryd.Rydberg.aais jobs in
      List.iter2
        (fun (target, t_tar) (b : Compiler.result) ->
          let r =
            Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar ()
          in
          check_bits_arr "batch env" r.Compiler.env b.Compiler.env;
          check_bits "batch t_sim" r.Compiler.t_sim b.Compiler.t_sim;
          check_bits "batch error" r.Compiler.error_l1 b.Compiler.error_l1)
        jobs batch)
    [ true; false ]

(* ---- td shares one device part across segments ---- *)

let test_td_multi_segment_unchanged () =
  (* the plan-based td path must reproduce the historical pipeline; the
     ramped MIS chain exercises distinct coefficient sets per segment *)
  let ryd = rydberg_for "mis-chain" 5 in
  let model = Qturbo_models.Benchmarks.mis_chain ~n:5 () in
  Compile_plan.clear_caches ();
  let a =
    Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:4 ()
  in
  (* warm: every segment shape is now cached *)
  let b =
    Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:4 ()
  in
  List.iter2
    (fun (x : Td_compiler.segment_result) (y : Td_compiler.segment_result) ->
      check_bits_arr "segment env" x.Td_compiler.env y.Td_compiler.env;
      check_bits "segment duration" x.Td_compiler.duration y.Td_compiler.duration)
    a.Td_compiler.segments b.Td_compiler.segments;
  check_bits "t_sim" a.Td_compiler.t_sim b.Td_compiler.t_sim;
  check_bits "error" a.Td_compiler.error_l1 b.Td_compiler.error_l1

(* ---- device-key memo ---- *)

module Backend = Qturbo_backend.Backend

let fresh_render ?(generic = false) aais =
  Printf.sprintf "g=%b|%s" generic (Shape.of_aais aais)

let key_stats = Compile_plan.device_key_stats

let test_memo_matches_fresh_render () =
  Compile_plan.clear_caches ();
  List.iter
    (fun (backend, model_name, n) ->
      let b = Backend.find_exn backend in
      let aais = (b.Backend.instantiate ~model_name ~n ()).Backend.aais in
      List.iter
        (fun generic ->
          let options =
            { Compiler.default_options with Compiler.generic_local_solver = generic }
          in
          let k0 = key_stats () in
          let first = Compile_plan.device_key ~options ~aais in
          let again = Compile_plan.device_key ~options ~aais in
          let k1 = key_stats () in
          let tag = Printf.sprintf "%s %s n=%d g=%b" backend model_name n generic in
          Alcotest.(check string) (tag ^ ": first = fresh render")
            (fresh_render ~generic aais) first;
          Alcotest.(check string) (tag ^ ": memo = fresh render")
            (fresh_render ~generic aais) again;
          Alcotest.(check int) (tag ^ ": one render") 1
            (k1.Compile_plan.renders - k0.Compile_plan.renders);
          Alcotest.(check int) (tag ^ ": one memo hit") 1
            (k1.Compile_plan.memo_hits - k0.Compile_plan.memo_hits))
        [ false; true ])
    [
      ("rydberg", "ising-cycle", 7);
      ("heisenberg", "heis-chain", 6);
      ("iontrap", "ising-chain", 5);
    ]

(* The pool is the one mutable part of an AAIS: a variable appended
   after the render must invalidate the memoized key. *)
let test_memo_rerenders_grown_pool () =
  Compile_plan.clear_caches ();
  let options = Compiler.default_options in
  let ryd = rydberg_for "ising-chain" 4 in
  let aais = ryd.Rydberg.aais in
  let before = Compile_plan.device_key ~options ~aais in
  ignore
    (Variable.fresh aais.Aais.pool ~name:"grown" ~kind:Variable.Runtime_dynamic
       ~lo:0.0 ~hi:1.0 ());
  let k0 = key_stats () in
  let after = Compile_plan.device_key ~options ~aais in
  let k1 = key_stats () in
  Alcotest.(check int) "re-rendered" 1
    (k1.Compile_plan.renders - k0.Compile_plan.renders);
  Alcotest.(check string) "grown key = fresh render" (fresh_render aais) after;
  Alcotest.(check bool) "grown key differs" false (String.equal before after);
  (* the re-render replaced the stale entry instead of adding one *)
  Alcotest.(check int) "one entry" 1 k1.Compile_plan.memo_size;
  ignore (Compile_plan.device_key ~options ~aais);
  Alcotest.(check int) "then memoized again" 1
    ((key_stats ()).Compile_plan.memo_hits - k1.Compile_plan.memo_hits)

let test_memo_cleared_and_bounded () =
  let options = Compiler.default_options in
  let devices =
    List.init 20 (fun i -> (rydberg_for "ising-chain" (2 + i)).Rydberg.aais)
  in
  Compile_plan.clear_caches ();
  List.iter (fun aais -> ignore (Compile_plan.device_key ~options ~aais)) devices;
  let k = key_stats () in
  Alcotest.(check int) "20 renders" 20 k.Compile_plan.renders;
  Alcotest.(check bool) "bounded" true (k.Compile_plan.memo_size < 20);
  (* the most recent device is still memoized *)
  ignore (Compile_plan.device_key ~options ~aais:(List.nth devices 19));
  Alcotest.(check int) "recent entry hits" 1 (key_stats ()).Compile_plan.memo_hits;
  Compile_plan.clear_caches ();
  let k = key_stats () in
  Alcotest.(check int) "cleared: empty" 0 k.Compile_plan.memo_size;
  Alcotest.(check int) "cleared: renders zeroed" 0 k.Compile_plan.renders;
  Alcotest.(check int) "cleared: hits zeroed" 0 k.Compile_plan.memo_hits;
  ignore (Compile_plan.device_key ~options ~aais:(List.nth devices 19));
  Alcotest.(check int) "cleared: next lookup renders" 1
    (key_stats ()).Compile_plan.renders;
  (* a disabled plan cache renders fresh and leaves the memo alone *)
  let options = { options with Compiler.plan_cache = false } in
  ignore (Compile_plan.device_key ~options ~aais:(List.nth devices 19));
  let k = key_stats () in
  Alcotest.(check int) "disabled: renders" 2 k.Compile_plan.renders;
  Alcotest.(check int) "disabled: no memo hit" 0 k.Compile_plan.memo_hits

(* Two structurally equal devices share one plan; after the lookup the
   second device's memoized key is the plan's own string, not a copy. *)
let test_memo_shares_plan_key_string () =
  Compile_plan.clear_caches ();
  let options = Compiler.default_options in
  let target = static_target "ising-chain" 4 in
  let a = (rydberg_for "ising-chain" 4).Rydberg.aais in
  let b = (rydberg_for "ising-chain" 4).Rydberg.aais in
  let pa, _ = Compile_plan.obtain ~options ~aais:a ~target in
  let plan_string = pa.Compile_plan.device.Compile_plan.device_key in
  Alcotest.(check bool) "build keeps the rendered string" true
    (Compile_plan.device_key ~options ~aais:a == plan_string);
  let pb, prov = Compile_plan.obtain ~options ~aais:b ~target in
  Alcotest.(check bool) "equal devices share the plan" true
    (prov = Compile_plan.Cached && pb == pa);
  Alcotest.(check bool) "memo adopts the plan's string" true
    (Compile_plan.device_key ~options ~aais:b == plan_string)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "plan"
    [
      ( "golden",
        [
          quick "td single segment == static compile" test_td_single_segment_golden;
          quick "td multi segment, cold == warm" test_td_multi_segment_unchanged;
        ] );
      ( "validation",
        [ quick "non-finite t_tar rejected (QT016)" test_compiler_rejects_nonfinite_t_tar ] );
      ( "keys",
        [
          quick "structural key sensitivity" test_plan_key_ignores_coefficients;
          QCheck_alcotest.to_alcotest prop_plan_key_coefficient_invariant;
        ] );
      ( "cache",
        [
          quick "bounded LRU semantics" test_plan_cache_lru;
          quick "hit/miss counters and disable" test_cache_stats_counters;
          quick "device part shared across shapes" test_device_plan_shared_across_shapes;
          QCheck_alcotest.to_alcotest prop_cached_solve_bitwise_domains_1;
          QCheck_alcotest.to_alcotest prop_cached_solve_bitwise_domains_4;
          quick "evicted keys are collected" test_plan_cache_drops_evicted_keys;
        ] );
      ( "staging",
        [
          quick "plan-build and cache-hit hooks" test_stage_hook_plan_build;
          quick "compile_batch == individual compiles" test_compile_batch_matches_individual;
        ] );
      ( "key-memo",
        [
          quick "memo = fresh render, every backend" test_memo_matches_fresh_render;
          quick "grown pool re-renders" test_memo_rerenders_grown_pool;
          quick "bounded, emptied by clear_caches" test_memo_cleared_and_bounded;
          quick "shares the plan's key string" test_memo_shares_plan_key_string;
        ] );
    ]
