(* Tests for the compile service: strict request parsing, the
   socket-free request handler (response shapes, typed errors, warm
   plan-cache reuse, CLI parity), and one end-to-end daemon round-trip
   over a real Unix-domain socket. *)

module J = Qturbo_util.Json
module Protocol = Qturbo_service.Protocol
module Server = Qturbo_service.Server
module Ops = Qturbo_service.Ops
module Client = Qturbo_service.Client

let parse_ok line =
  match Protocol.parse_line line with
  | Ok req -> req
  | Error msg -> Alcotest.failf "%s did not parse: %s" line msg

let parse_err line =
  match Protocol.parse_line line with
  | Ok req ->
      Alcotest.failf "%s parsed as %s, expected an error" line
        (Protocol.op_name req)
  | Error msg -> msg

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains msg ~needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: %S not in %s" msg needle hay

(* ---- protocol ---- *)

let test_protocol_parse () =
  (match parse_ok {|{"op":"ping"}|} with
  | Protocol.Ping -> ()
  | req -> Alcotest.failf "expected ping, got %s" (Protocol.op_name req));
  (match parse_ok {|{"op":"compile","model":"ising-chain"}|} with
  | Protocol.Compile c ->
      (* documented defaults *)
      Alcotest.(check int) "default n" 5 c.Protocol.job.Protocol.n;
      Alcotest.(check string) "default backend" "rydberg"
        c.Protocol.job.Protocol.backend;
      Alcotest.(check bool) "default best_effort" false
        c.Protocol.best_effort
  | req -> Alcotest.failf "expected compile, got %s" (Protocol.op_name req));
  (match
     parse_ok
       {|{"op":"sweep","model":"ising-chain","n":4,"sweep_j":"0.1:0.3:3","best_effort":true}|}
   with
  | Protocol.Sweep s ->
      Alcotest.(check string) "sweep_j" "0.1:0.3:3" s.Protocol.sweep_j;
      Alcotest.(check bool) "best_effort" true s.Protocol.sweep_best_effort
  | req -> Alcotest.failf "expected sweep, got %s" (Protocol.op_name req))

let test_protocol_strict () =
  (* unknown op *)
  check_contains "unknown op" ~needle:"unknown op"
    (parse_err {|{"op":"frobnicate"}|});
  (* a typo'd field is an error, not a silently applied default *)
  check_contains "unknown field" ~needle:"t_targ"
    (parse_err {|{"op":"compile","model":"ising-chain","t_targ":2.0}|});
  (* ping accepts nothing but op *)
  check_contains "ping is closed" ~needle:"unknown field"
    (parse_err {|{"op":"ping","extra":1}|});
  (* type errors *)
  check_contains "n must be a number" ~needle:"\"n\""
    (parse_err {|{"op":"compile","model":"ising-chain","n":"five"}|});
  check_contains "n must be integral" ~needle:"integer"
    (parse_err {|{"op":"compile","model":"ising-chain","n":2.5}|});
  (* shape errors *)
  check_contains "needs op" ~needle:"op" (parse_err {|{"model":"x"}|});
  check_contains "object only" ~needle:"object" (parse_err {|[1,2]|});
  check_contains "invalid JSON" ~needle:"invalid JSON" (parse_err "{nope")

(* ---- the socket-free handler ---- *)

let handle line = Server.handle_request ~requests:1 ~started:0.0 line

let response_fields resp =
  match J.parse_exn resp with
  | J.Object fields -> fields
  | _ -> Alcotest.failf "response is not an object: %s" resp

let response_result resp =
  let fields = response_fields resp in
  match (List.assoc_opt "ok" fields, List.assoc_opt "result" fields) with
  | Some (J.Bool true), Some v -> v
  | _ -> Alcotest.failf "expected an ok response, got %s" resp

let response_error resp =
  let fields = response_fields resp in
  match (List.assoc_opt "ok" fields, List.assoc_opt "error" fields) with
  | Some (J.Bool false), Some (J.Object err) -> (
      match List.assoc_opt "kind" err with
      | Some (J.String kind) -> (kind, err)
      | _ -> Alcotest.failf "error without kind: %s" resp)
  | _ -> Alcotest.failf "expected an error response, got %s" resp

let test_handler_basics () =
  let resp, keep = handle {|{"op":"ping"}|} in
  Alcotest.(check string) "ping" {|{"ok":true,"result":"pong"}|} resp;
  Alcotest.(check bool) "ping keeps serving" true keep;
  let _, keep = handle {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown stops" false keep;
  let resp, keep = handle "definitely not json" in
  let kind, _ = response_error resp in
  Alcotest.(check string) "malformed is a parse error" "parse" kind;
  Alcotest.(check bool) "parse errors keep serving" true keep;
  (* the depth bomb gets a clean parse error, not a crash *)
  let resp, _ = handle (String.make 10_000 '[') in
  let kind, _ = response_error resp in
  Alcotest.(check string) "depth bomb" "parse" kind;
  (* stats is well-formed *)
  let resp, _ = handle {|{"op":"stats"}|} in
  match response_result resp with
  | J.Object fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "stats lacks %S: %s" k resp)
        [
          "requests"; "uptime_seconds"; "plan_cache"; "plan_store";
          "instances"; "device_keys";
        ]
  | _ -> Alcotest.fail "stats result is not an object"

let test_handler_compile_and_warm_cache () =
  Qturbo_core.Compile_plan.clear_caches ();
  let req = {|{"op":"compile","model":"ising-chain","n":5}|} in
  let member path v =
    List.fold_left
      (fun v k ->
        match v with
        | J.Object fields -> (
            match List.assoc_opt k fields with
            | Some v -> v
            | None -> Alcotest.failf "missing field %s" k)
        | _ -> Alcotest.failf "not an object at %s" k)
      v path
  in
  let resp1, _ = handle req in
  let r1 = response_result resp1 in
  (match member [ "plan_cache"; "hit" ] r1 with
  | J.Bool false -> ()
  | _ -> Alcotest.fail "first compile should build its plan");
  let resp2, _ = handle req in
  let r2 = response_result resp2 in
  (match member [ "plan_cache"; "hit" ] r2 with
  | J.Bool true -> ()
  | _ -> Alcotest.fail "second compile should reuse the warm plan");
  (* numbers agree across the warm hit *)
  let error_l1 v =
    match member [ "error_l1" ] v with
    | J.Number f -> f
    | _ -> Alcotest.fail "error_l1 missing"
  in
  Alcotest.(check bool) "error_l1 identical" true
    (Int64.equal
       (Int64.bits_of_float (error_l1 r1))
       (Int64.bits_of_float (error_l1 r2)))

let test_handler_typed_errors () =
  let kind_of line = fst (response_error (fst (handle line))) in
  Alcotest.(check string) "unknown model is a user error" "user"
    (kind_of {|{"op":"compile","model":"not-a-model"}|});
  Alcotest.(check string) "driven model rejected" "user"
    (kind_of {|{"op":"compile","model":"mis-chain"}|});
  (* an analyzer rejection (uncoverable target) carries its diagnostics *)
  let resp, _ = handle {|{"op":"compile","hamiltonian":"1.0*Y0 Y1"}|} in
  let kind, err = response_error resp in
  Alcotest.(check string) "rejected" "rejected" kind;
  (match List.assoc_opt "diagnostics" err with
  | Some (J.Object _) -> ()
  | _ -> Alcotest.failf "rejection without diagnostics: %s" resp);
  (* requests after an error still work: the daemon survives *)
  let resp, keep = handle {|{"op":"ping"}|} in
  Alcotest.(check string) "still alive" {|{"ok":true,"result":"pong"}|} resp;
  Alcotest.(check bool) "keep" true keep

(* A daemon compile response's result matches the payload the CLI's
   --json path builds for the same job (both call Ops) — modulo the
   plan_cache object, which carries wall-clock timings. *)
let drop_plan_cache = function
  | J.Object fields ->
      J.Object (List.filter (fun (k, _) -> k <> "plan_cache") fields)
  | v -> v

let test_handler_cli_parity () =
  Qturbo_core.Compile_plan.clear_caches ();
  let resp, _ = handle {|{"op":"compile","model":"ising-chain","n":5}|} in
  Qturbo_core.Compile_plan.clear_caches ();
  let model =
    Ops.resolve_model ~hamiltonian:None ~model_name:(Some "ising-chain") ~n:5
      ~j:0.0 ~h:0.0
  in
  (* a fresh instance, as a CLI process builds *)
  let inst =
    Ops.resolve_backend ~reuse:false ~backend:"rydberg" ~device:None
      ~cutoff:None ~ramp:false ~model_name:model.Qturbo_models.Model.name
      ~n:model.Qturbo_models.Model.n
  in
  let direct =
    J.emit
      (drop_plan_cache
         (J.parse_exn
            (Ops.compile_report_json
               ~options:Qturbo_core.Compiler.default_options ~inst
               ~target:(Ops.static_target model) ~t_tar:1.0 ~show_pulse:false
               ~ramp:false ())))
  in
  Alcotest.(check string) "daemon result = CLI --json payload" direct
    (J.emit (drop_plan_cache (response_result resp)));
  (* a warm request on the daemon's reused instance hits the plan the
     fresh instance built: still the same payload *)
  let resp, _ = handle {|{"op":"compile","model":"ising-chain","n":5}|} in
  Alcotest.(check string) "warm daemon result = CLI --json payload" direct
    (J.emit (drop_plan_cache (response_result resp)))

(* A time-dependent daemon sweep fans its jobs out over the batch
   workers; its result is the CLI's `sweep --json` payload for the same
   job, and the sequential batch's once the setting itself is dropped. *)
let test_handler_td_sweep_parity () =
  Qturbo_core.Compile_plan.clear_caches ();
  let resp, _ =
    handle
      {|{"op":"sweep","model":"mis-chain","n":5,"sweep_segments":"1,4,8","sweep_t":"1.0:1.4:2","batch_domains":2}|}
  in
  let probe =
    Ops.resolve_model ~hamiltonian:None ~model_name:(Some "mis-chain") ~n:5
      ~j:0.0 ~h:0.0
  in
  let inst =
    Ops.resolve_backend ~reuse:false ~backend:"rydberg" ~device:None
      ~cutoff:None ~ramp:false ~model_name:probe.Qturbo_models.Model.name
      ~n:probe.Qturbo_models.Model.n
  in
  let td_jobs =
    List.concat_map
      (fun segments ->
        List.map
          (fun t -> (segments, t))
          (Ops.parse_range ~what:"--sweep-t" "1.0:1.4:2"))
      (Ops.parse_int_list ~what:"--sweep-segments" "1,4,8")
  in
  let cli batch_domains =
    Qturbo_core.Compile_plan.clear_caches ();
    J.parse_exn
      (Ops.sweep_td_json ~options:Qturbo_core.Compiler.default_options
         ~batch_domains ~backend:"rydberg" ~inst ~probe ~td_jobs ())
  in
  let daemon = drop_plan_cache (response_result resp) in
  Alcotest.(check string) "daemon result = CLI sweep --json payload"
    (J.emit (drop_plan_cache (cli 2)))
    (J.emit daemon);
  let drop_batch_domains = function
    | J.Object fields ->
        J.Object
          (List.map
             (function
               | "sweep", J.Object header ->
                   ( "sweep",
                     J.Object
                       (List.filter (fun (k, _) -> k <> "batch_domains") header)
                   )
               | field -> field)
             fields)
    | v -> v
  in
  Alcotest.(check string) "2 batch workers = the sequential batch"
    (J.emit (drop_batch_domains (drop_plan_cache (cli 1))))
    (J.emit (drop_batch_domains daemon))

(* ---- backend instance reuse ---- *)

module CP = Qturbo_core.Compile_plan
module PC = Qturbo_core.Plan_cache

(* A warm compile of a resident shape instantiates nothing (an instance
   cache hit, no miss) and renders nothing (a device-key memo hit). *)
let test_warm_compile_renders_nothing () =
  CP.clear_caches ();
  let req = {|{"op":"compile","model":"kitaev","n":6,"h":0.7}|} in
  let cold = response_result (fst (handle req)) in
  let i0 = Ops.instance_stats () and k0 = CP.device_key_stats () in
  let warm =
    response_result
      (fst (handle {|{"op":"compile","model":"kitaev","n":6,"h":0.9}|}))
  in
  let i1 = Ops.instance_stats () and k1 = CP.device_key_stats () in
  Alcotest.(check int) "no instantiate" 0 (i1.PC.misses - i0.PC.misses);
  Alcotest.(check int) "instance reused" 1 (i1.PC.hits - i0.PC.hits);
  Alcotest.(check int) "no key render" 0 (k1.CP.renders - k0.CP.renders);
  Alcotest.(check int) "key memo hit" 1 (k1.CP.memo_hits - k0.CP.memo_hits);
  let hit r = J.member_exn "hit" (J.member_exn "plan_cache" r) in
  Alcotest.(check bool) "cold built" true (hit cold = J.Bool false);
  Alcotest.(check bool) "warm hit" true (hit warm = J.Bool true);
  (* check and lint resolve through the same cache *)
  ignore (response_result (fst (handle {|{"op":"check","model":"kitaev","n":6}|})));
  ignore (response_result (fst (handle {|{"op":"lint","model":"kitaev","n":6}|})));
  let i2 = Ops.instance_stats () in
  Alcotest.(check int) "check + lint reuse" 2 (i2.PC.hits - i1.PC.hits);
  Alcotest.(check int) "check + lint instantiate nothing" 0
    (i2.PC.misses - i1.PC.misses);
  (* a static sweep too, and its 4 jobs render no key *)
  ignore
    (response_result
       (fst
          (handle
             {|{"op":"sweep","model":"kitaev","n":6,"sweep_h":"0.5:0.8:4"}|})));
  let i3 = Ops.instance_stats () and k3 = CP.device_key_stats () in
  Alcotest.(check int) "sweep reuses" 1 (i3.PC.hits - i2.PC.hits);
  Alcotest.(check int) "sweep renders nothing" 0 (k3.CP.renders - k1.CP.renders)

let resolve ?(reuse = true) ?device ?cutoff backend model_name n =
  Ops.resolve_backend ~reuse ~backend ~device ~cutoff ~ramp:false ~model_name
    ~n

let test_instance_lru_and_failures () =
  Ops.clear_instances ();
  let cap = (Ops.instance_stats ()).PC.capacity in
  Alcotest.(check bool) "holds a serve client's 11 shapes" true (cap >= 11);
  let shape i = resolve "heisenberg" "heis-chain" (i + 2) in
  let first = shape 0 in
  for i = 1 to cap do
    ignore (shape i)
  done;
  let s = Ops.instance_stats () in
  Alcotest.(check int) "misses" (cap + 1) s.PC.misses;
  Alcotest.(check int) "one eviction at capacity" 1 s.PC.evictions;
  Alcotest.(check int) "size = capacity" cap s.PC.size;
  (* the least recently used shape was the one evicted *)
  let again = shape 0 in
  Alcotest.(check bool) "evicted shape rebuilt" true (again != first);
  Alcotest.(check int) "evicted shape misses" (cap + 2)
    (Ops.instance_stats ()).PC.misses;
  Alcotest.(check bool) "resident shape reused" true (shape 0 == again);
  (* a failed instantiate is never cached *)
  let failing () =
    match resolve ~device:"no-such-device" "rydberg" "ising-chain" 4 with
    | _ -> Alcotest.fail "unknown device should fail"
    | exception Failure _ -> ()
  in
  let before = Ops.instance_stats () in
  failing ();
  failing ();
  let after = Ops.instance_stats () in
  Alcotest.(check int) "both attempts miss" 2 (after.PC.misses - before.PC.misses);
  Alcotest.(check int) "nothing admitted" before.PC.size after.PC.size;
  Alcotest.(check int) "nothing evicted" before.PC.evictions after.PC.evictions;
  match resolve ~cutoff:"bogus" "rydberg" "ising-chain" 4 with
  | _ -> Alcotest.fail "bad cutoff should fail"
  | exception Failure _ ->
      Alcotest.(check int) "bad cutoff admitted nothing" before.PC.size
        (Ops.instance_stats ()).PC.size

(* no_plan_cache builds everything fresh: its own instance and its own
   key render, and the reuse counters do not move *)
let test_no_plan_cache_builds_fresh () =
  let reused = resolve "rydberg" "ising-chain" 4 in
  let fresh = resolve ~reuse:false "rydberg" "ising-chain" 4 in
  Alcotest.(check bool) "fresh instance" true (fresh != reused);
  Alcotest.(check bool) "fresh AAIS" true
    (fresh.Ops.Backend.aais != reused.Ops.Backend.aais);
  let req = {|{"op":"compile","model":"ising-chain","n":4,"no_plan_cache":true}|} in
  let i0 = Ops.instance_stats () and k0 = CP.device_key_stats () in
  ignore (response_result (fst (handle req)));
  ignore (response_result (fst (handle req)));
  let i1 = Ops.instance_stats () and k1 = CP.device_key_stats () in
  Alcotest.(check int) "no instance hits" i0.PC.hits i1.PC.hits;
  Alcotest.(check int) "no instance misses" i0.PC.misses i1.PC.misses;
  Alcotest.(check int) "each request renders" 2 (k1.CP.renders - k0.CP.renders);
  Alcotest.(check int) "no memo hits" k0.CP.memo_hits k1.CP.memo_hits

(* ---- end-to-end over a real socket ---- *)

let test_socket_end_to_end () =
  let socket_path = Filename.temp_file "qturbo-serve-test" ".sock" in
  Sys.remove socket_path;
  let config =
    { (Server.default_config ~socket_path) with Server.max_requests = Some 8 }
  in
  let daemon = Thread.create Server.serve config in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Fun.protect
    ~finally:(fun () ->
      (* belt and braces: the daemon removes it on clean shutdown *)
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      let request line =
        match Client.request ~socket_path line with
        | Ok resp -> resp
        | Error msg -> Alcotest.failf "client error: %s" msg
      in
      Alcotest.(check string) "ping" {|{"ok":true,"result":"pong"}|}
        (request {|{"op":"ping"}|});
      let resp = request {|{"op":"check","model":"ising-chain","n":4}|} in
      Alcotest.(check bool) "check ok" true (Client.response_ok resp);
      let resp = request {|{"op":"compile","model":"bogus"}|} in
      Alcotest.(check bool) "error response" false (Client.response_ok resp);
      check_contains "user error over the wire" ~needle:{|"kind":"user"|} resp;
      Alcotest.(check string) "shutdown" {|{"ok":true,"result":"shutting down"}|}
        (request {|{"op":"shutdown"}|});
      Thread.join daemon;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
      match Client.request ~socket_path {|{"op":"ping"}|} with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "daemon still answering after shutdown")

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests parse" `Quick test_protocol_parse;
          Alcotest.test_case "strict fields" `Quick test_protocol_strict;
        ] );
      ( "handler",
        [
          Alcotest.test_case "basics" `Quick test_handler_basics;
          Alcotest.test_case "compile + warm cache" `Quick
            test_handler_compile_and_warm_cache;
          Alcotest.test_case "typed errors" `Quick test_handler_typed_errors;
          Alcotest.test_case "CLI --json parity" `Quick
            test_handler_cli_parity;
          Alcotest.test_case "td sweep parity" `Quick
            test_handler_td_sweep_parity;
        ] );
      ( "socket",
        [ Alcotest.test_case "end to end" `Quick test_socket_end_to_end ] );
      ( "reuse",
        [
          Alcotest.test_case "warm compile renders nothing" `Quick
            test_warm_compile_renders_nothing;
          Alcotest.test_case "instance LRU, failures uncached" `Quick
            test_instance_lru_and_failures;
          Alcotest.test_case "no_plan_cache builds fresh" `Quick
            test_no_plan_cache_builds_fresh;
        ] );
    ]
