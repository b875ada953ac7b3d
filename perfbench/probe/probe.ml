(* Benchmark probe: strict-parses the program's outputs and replays the
   benchmark's operations in-process through qturbo's public API, timing
   each layer from the outside.

     probe.exe check OUTS
       OUTS holds one {"id","source","out"} object per line, where [out]
       is a program output line (CLI stdout or daemon response).  Prints
       one record per output: whether it strict-parses with
       [Qturbo_util.Json], a digest of its canonical form without the
       [plan_cache] objects, and per-job T_sim / relative error (as hex
       floats, for bitwise comparison) with the first failed check.

     probe.exe replay --ops FILE --ids I,J,.. [--warm FILE] [--store DIR]
                      [--trace 0|1] [--socket PATH] [--spans FILE]
       Replays the listed operations with the calls the CLI and the
       daemon make, in the same order.  Without --warm every operation
       starts from cold caches (one process per operation); with --warm
       the listed warm-up operations run first and caches persist (a
       long-lived daemon).  --store gives each pass a fresh plan store
       under DIR.  The plain pass records nothing; with --trace 1 a
       second, traced pass records one span per layer call and prints
       the per-layer metrics.  Spans stay in memory and are written to
       --spans (Chrome trace-event JSON) at exit. *)

module J = Qturbo_util.Json
module CP = Qturbo_core.Compile_plan
module C = Qturbo_core.Compiler
module Td = Qturbo_core.Td_compiler
module V = Qturbo_core.Verifier
module B = Qturbo_backend.Backend
module Ops = Qturbo_service.Ops
module D = Qturbo_analysis.Diagnostic
module M = Qturbo_models.Model

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf failwith fmt

(* ---- canonical output view --------------------------------------------- *)

(* [plan_cache] objects carry timings and process-local counters; every
   identity comparison ignores them, as the service tests do. *)
let rec strip = function
  | J.Object fs ->
      J.Object
        (List.filter_map
           (fun (k, v) -> if k = "plan_cache" then None else Some (k, strip v))
           fs)
  | J.Array l -> J.Array (List.map strip l)
  | v -> v

let digest v = Digest.to_hex (Digest.string (J.emit (strip v)))

(* A float field as the JSON record sees it: absent, null (the program
   prints non-finite values as null) or a number. *)
type fval = Absent | Nonfinite | Val of float

let fval_json = function
  | Absent -> "null"
  | Nonfinite -> {|"nonfinite"|}
  | Val f -> Printf.sprintf {|"%h"|} f

let of_float f = if Float.is_finite f then Val f else Nonfinite

let field k v =
  match J.member k v with
  | None -> Absent
  | Some (J.Number f) -> of_float f
  | Some _ -> Nonfinite

type job = { t_sim : fval; rel : fval; failed : string option }

let job_json j =
  Printf.sprintf {|{"t_sim":%s,"rel":%s,"fail":%s}|} (fval_json j.t_sim)
    (fval_json j.rel)
    (match j.failed with None -> "null" | Some r -> J.quote r)

let finite_check name = function
  | Val _ | Absent -> None
  | Nonfinite -> Some ("non-finite-" ^ name)

(* The verifier's independent reconstruction decides whether a static
   job succeeded. *)
let report_failure r =
  let flag k = J.member k r = Some (J.Bool true) in
  if not (flag "executable") then Some "not-executable"
  else if not (flag "consistent_with_compiler") then Some "inconsistent"
  else
    match J.member "violations" r with
    | Some (J.Array []) -> None
    | _ -> Some "violations"

let first_some l = List.find_map Fun.id l

let jobs_of_payload p =
  match (J.member "sweep" p, J.member "jobs" p) with
  | Some _, Some (J.Array js) ->
      List.map
        (fun jv ->
          match J.member "report" jv with
          | Some r ->
              let rel = field "relative_error" r in
              {
                t_sim = Absent;
                rel;
                failed =
                  first_some [ report_failure r; finite_check "error" rel ];
              }
          | None ->
              let t_sim = field "t_sim" jv and rel = field "relative_error" jv in
              {
                t_sim;
                rel;
                failed =
                  first_some
                    [ finite_check "error" rel; finite_check "t_sim" t_sim ];
              })
        js
  | _ when J.member "relative_error" p <> None ->
      let rel = field "relative_error" p in
      let t_sim =
        match J.member "pulse" p with
        | Some pulse -> field "duration" pulse
        | None -> Absent
      in
      [
        {
          t_sim;
          rel;
          failed =
            first_some
              [
                report_failure p; finite_check "error" rel;
                finite_check "t_sim" t_sim;
              ];
        };
      ]
  | _ when J.member "diagnostics" p <> None ->
      [ { t_sim = Absent; rel = Absent; failed = None } ]
  | _ -> fail "unrecognised payload"

(* One program output line -> the record line printed for it. *)
let check_output ~id ~source text =
  match J.parse text with
  | Error msg ->
      Printf.sprintf {|{"id":%d,"parsed":false,"error":%s}|} id (J.quote msg)
  | Ok v -> (
      let payload =
        if source = "daemon" then
          match (J.member "ok" v, J.member "result" v) with
          | Some (J.Bool true), Some p -> Ok p
          | _ ->
              Error
                (match J.member "error" v with
                | Some e -> J.emit e
                | None -> "malformed response")
        else Ok v
      in
      match payload with
      | Error e ->
          Printf.sprintf {|{"id":%d,"parsed":true,"daemon_error":%s}|} id
            (J.quote e)
      | Ok p -> (
          match jobs_of_payload p with
          | jobs ->
              Printf.sprintf {|{"id":%d,"parsed":true,"digest":"%s","jobs":[%s]}|}
                id (digest p)
                (String.concat "," (List.map job_json jobs))
          | exception Failure msg ->
              Printf.sprintf {|{"id":%d,"parsed":false,"error":%s}|} id
                (J.quote msg)))

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let str_member k v =
  match J.member k v with Some (J.String s) -> Some s | _ -> None

let num_member k v =
  match J.member k v with Some (J.Number f) -> f | _ -> fail "missing %s" k

let check_main path =
  List.iter
    (fun line ->
      let w = J.parse_exn line in
      let id = int_of_float (num_member "id" w) in
      let source = Option.value (str_member "source" w) ~default:"cli" in
      let out = Option.value (str_member "out" w) ~default:"" in
      print_endline (check_output ~id ~source out))
    (read_lines path)

(* ---- spans --------------------------------------------------------------- *)

type span = {
  sid : int;
  parent : int;  (** 0 = top level of its operation *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
  side : bool;
      (** a measurement the program's own operation does not make (an
          extra key render, a serial re-run, the socket round trip); its
          time is excluded from the operation's replay time *)
  alloc_mw : float;  (** [Gc.quick_stat] words allocated, millions *)
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_sid = ref 0
let cur_op = ref (-1)

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [f] returns the span's name with its value, so a call can be
   classified by its outcome (a plan obtained from the cache, the store
   or a fresh build). *)
let span_named ?(side = false) ~default f =
  if not !tracing then snd (f ())
  else begin
    incr next_sid;
    let sid = !next_sid in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := sid :: !stack;
    let w0 = words () in
    let t0 = now () in
    let finish name =
      let t1 = now () in
      let alloc_mw = (words () -. w0) /. 1e6 in
      stack := List.tl !stack;
      spans := { sid; parent; op = !cur_op; name; t0; t1; side; alloc_mw } :: !spans
    in
    match f () with
    | name, v ->
        finish name;
        v
    | exception e ->
        finish default;
        raise e
  end

let span ?side name f = span_named ?side ~default:name (fun () -> (name, f ()))

(* ---- operations ------------------------------------------------------------ *)

type op = {
  id : int;
  kind : string;  (** compile | check | sweep_static | sweep_td *)
  backend : string;
  device : string option;
  model : string;
  n : int;
  j : float;
  h : float;
  t_tar : float;
  jobs : (float * float * float) list;
  segments : string;
  sweep_t : string;
  req : string option;  (** the daemon request line, serve only *)
}

let op_of_json v =
  let str k = Option.value (str_member k v) ~default:"" in
  let num k = match J.member k v with Some (J.Number f) -> f | _ -> 0.0 in
  {
    id = int_of_float (num_member "id" v);
    kind = str "kind";
    backend = str "backend";
    device = str_member "device" v;
    model = str "model";
    n = int_of_float (num "n");
    j = num "j";
    h = num "h";
    t_tar = num "t_tar";
    jobs =
      (match J.member "jobs" v with
      | Some (J.Array l) ->
          List.map
            (function
              | J.Array [ J.Number a; J.Number b; J.Number c ] -> (a, b, c)
              | _ -> fail "bad job triple")
            l
      | _ -> []);
    segments = str "segments";
    sweep_t = str "sweep_t";
    req = str_member "req" v;
  }

let options = C.default_options
let batch_domains = 2

(* Counters of one replay pass that the spans cannot give. *)
type counts = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable store_writes : int;
  mutable store_corrupt : int;
  mutable degraded : int;
  mutable recovered : int;
  mutable not_executable : int;
  mutable td_segments : int;
  mutable td_builds : int;
  mutable emit_bytes : int;
  mutable service_errors : int;
  mutable mismatches : string list;
}

let counts () =
  {
    cache_hits = 0; cache_misses = 0; cache_evictions = 0; store_hits = 0;
    store_misses = 0; store_writes = 0; store_corrupt = 0; degraded = 0;
    recovered = 0; not_executable = 0; td_segments = 0; td_builds = 0;
    emit_bytes = 0; service_errors = 0; mismatches = [];
  }

let mismatch c fmt = Printf.ksprintf (fun s -> c.mismatches <- s :: c.mismatches) fmt

let note_result c (r : C.result) =
  if r.C.degraded then c.degraded <- c.degraded + 1
  else if r.C.failures <> [] then c.recovered <- c.recovered + 1

let emit c f =
  span "emit" (fun () ->
      let s = f () in
      c.emit_bytes <- c.emit_bytes + String.length s;
      s)

let model_of op ~j ~h =
  Ops.resolve_model ~hamiltonian:None ~model_name:(Some op.model) ~n:op.n ~j ~h

let instantiate op (model : M.t) =
  let b = B.find_exn op.backend in
  span "backend.instantiate" (fun () ->
      b.B.instantiate ?device:op.device ~model_name:model.M.name ~n:model.M.n ())

let verify c (inst : B.instance) ~target ~t_tar r =
  let report = span "verifier.verify" (fun () -> inst.B.verify ~target ~t_tar r) in
  if not report.V.executable then c.not_executable <- c.not_executable + 1;
  report

let obtain ~aais ~target =
  span_named ~default:"compile_plan.obtain" (fun () ->
      let plan, prov = CP.obtain ~options ~aais ~target in
      let name =
        match prov with
        | CP.Built -> "compile_plan.build"
        | CP.Cached -> "plan_cache.hit"
        | CP.Stored -> "plan_store.load"
      in
      (name, (plan, prov)))

(* `qturbo compile --json --show-pulse` / a daemon compile request:
   Ops.compile_report_json, one call at a time. *)
let replay_compile c op =
  let model, target =
    span "models.build" (fun () ->
        let m = model_of op ~j:op.j ~h:op.h in
        (m, Ops.static_target m))
  in
  let inst = instantiate op model in
  let aais = inst.B.aais in
  if !tracing then
    span ~side:true "shape.key" (fun () ->
        ignore (CP.plan_key ~options ~aais ~target));
  CP.validate_t_tar ~who:"Compiler.compile" op.t_tar;
  let plan, provenance = obtain ~aais ~target in
  let r =
    span "compile_plan.solve" (fun () ->
        CP.solve ~options ~provenance ~plan ~coeffs:target ~t_tar:op.t_tar ())
  in
  note_result c r;
  let report = verify c inst ~target ~t_tar:op.t_tar r in
  let pulse = ref "" in
  let out =
    emit c (fun () ->
        let json = V.report_to_json report in
        pulse := B.pulse_json (inst.B.extract ~env:r.C.env ~t_sim:r.C.t_sim);
        String.sub json 0 (String.length json - 1) ^ ",\"pulse\":" ^ !pulse ^ "}")
  in
  (* what the CLI prints: the verifier's error and the pulse's duration *)
  ( out,
    [ (field "duration" (J.parse_exn !pulse), of_float report.V.relative_error) ] )

(* `qturbo check --json` / a daemon check request. *)
let replay_check c op =
  let model, target =
    span "models.build" (fun () ->
        let m = model_of op ~j:op.j ~h:op.h in
        (m, Ops.static_target m))
  in
  let inst = instantiate op model in
  let diags =
    span "analysis.analyze" (fun () ->
        C.analyze ~t_max:inst.B.max_time ~aais:inst.B.aais ~target
          ~t_tar:op.t_tar ())
  in
  let out =
    emit c (fun () -> D.list_to_json (inst.B.spec_diagnostics @ diags))
  in
  (out, [ (Absent, Absent) ])

(* The results of the last replayed static sweep, for {!serial_batch}. *)
let last_batch : C.result list ref = ref []

(* `qturbo sweep --json --batch-domains 2 --jobs FILE`. *)
let replay_sweep_static c op =
  let probe, batch =
    span "models.build" (fun () ->
        let probe = model_of op ~j:0.0 ~h:0.0 in
        ( probe,
          List.map
            (fun (j, h, t) -> (Ops.static_target (model_of op ~j ~h), t))
            op.jobs ))
  in
  let inst = instantiate op probe in
  let aais = inst.B.aais in
  let results =
    span "compiler.batch" (fun () ->
        C.compile_batch ~options ~batch_domains ~aais batch)
  in
  List.iter (note_result c) results;
  last_batch := results;
  let reports =
    List.map2
      (fun (target, t_tar) r -> verify c inst ~target ~t_tar r)
      batch results
  in
  let out =
    emit c (fun () ->
        let jf = J.float_lit in
        let job_json (j, h, t) report =
          Printf.sprintf {|{"j":%s,"h":%s,"t_tar":%s,"report":%s}|} (jf j)
            (jf h) (jf t) (V.report_to_json report)
        in
        Printf.sprintf {|{%s,"jobs":[%s],"plan_cache":%s}|}
          (Ops.sweep_header ~probe ~backend:op.backend ~n:probe.M.n
             ~mode:"static" ~job_count:(List.length op.jobs) ~batch_domains)
          (String.concat "," (List.map2 job_json op.jobs reports))
          (Ops.plan_cache_json ()))
  in
  ( out,
    List.map2
      (fun (r : C.result) (rep : V.report) ->
        (of_float r.C.t_sim, of_float rep.V.relative_error))
      results reports )

(* The same batch on one worker, from cold caches: the base of
   [par.batch_speedup], and a bitwise check that the fan-out changes
   nothing. *)
let serial_batch c op =
  let t = !tracing in
  tracing := false;
  CP.clear_caches ();
  let aais = (instantiate op (model_of op ~j:0.0 ~h:0.0)).B.aais in
  let batch =
    List.map (fun (j, h, t) -> (Ops.static_target (model_of op ~j ~h), t)) op.jobs
  in
  tracing := t;
  let serial =
    span ~side:true "compiler.batch.serial" (fun () ->
        C.compile_batch ~options ~batch_domains:1 ~aais batch)
  in
  List.iter2
    (fun (p : C.result) (r : C.result) ->
      if
        Int64.bits_of_float p.C.t_sim <> Int64.bits_of_float r.C.t_sim
        || Int64.bits_of_float p.C.relative_error
           <> Int64.bits_of_float r.C.relative_error
      then
        mismatch c "op %d: batch at 1 and %d workers differ" op.id
          batch_domains)
    !last_batch serial

(* `qturbo sweep --json --sweep-segments L --sweep-t R` on a driven model. *)
let replay_sweep_td c op =
  let probe = span "models.build" (fun () -> model_of op ~j:0.0 ~h:0.0) in
  let inst = instantiate op probe in
  let ts = Ops.parse_range ~what:"--sweep-t" op.sweep_t in
  let seg_list = Ops.parse_int_list ~what:"--sweep-segments" op.segments in
  let td_jobs =
    List.concat_map (fun segments -> List.map (fun t -> (segments, t)) ts) seg_list
  in
  let results =
    List.map
      (fun (segments, t_tar) ->
        let td =
          span "td_compiler.compile" (fun () ->
              Td.compile ~options ~aais:inst.B.aais ~model:probe ~t_tar
                ~segments ())
        in
        c.td_segments <- c.td_segments + segments;
        c.td_builds <- c.td_builds + td.Td.plan_builds;
        if td.Td.degraded then c.degraded <- c.degraded + 1
        else if td.Td.failures <> [] then c.recovered <- c.recovered + 1;
        (segments, t_tar, td))
      td_jobs
  in
  let out =
    emit c (fun () ->
        let jf = J.float_lit in
        let job_json (segments, t_tar, (td : Td.result)) =
          Printf.sprintf
            {|{"segments":%d,"t_tar":%s,"t_sim":%s,"relative_error":%s,"plan_shapes":%d,"plan_builds":%d,"degraded":%b}|}
            segments (jf t_tar) (jf td.Td.t_sim) (jf td.Td.relative_error)
            td.Td.plan_shapes td.Td.plan_builds td.Td.degraded
        in
        Printf.sprintf {|{%s,"jobs":[%s],"plan_cache":%s}|}
          (Ops.sweep_header ~probe ~backend:op.backend ~n:probe.M.n ~mode:"td"
             ~job_count:(List.length td_jobs) ~batch_domains)
          (String.concat "," (List.map job_json results))
          (Ops.plan_cache_json ()))
  in
  ( out,
    List.map
      (fun (_, _, (td : Td.result)) ->
        (of_float td.Td.t_sim, of_float td.Td.relative_error))
      results )

let replay_op c op =
  match op.kind with
  | "compile" -> replay_compile c op
  | "check" -> replay_check c op
  | "sweep_static" -> replay_sweep_static c op
  | "sweep_td" -> replay_sweep_td c op
  | k -> fail "unknown op kind %s" k

(* The daemon's view of the same request: one socket round trip and one
   in-process [Server.handle_request], both compared with the replay. *)
let service c ~socket op ~replayed =
  match op.req with
  | None -> ()
  | Some line ->
      let remote =
        span ~side:true "service.roundtrip" (fun () ->
            Qturbo_service.Client.request ~socket_path:socket line)
      in
      let local, _ =
        span ~side:true "service.handle" (fun () ->
            Qturbo_service.Server.handle_request ~requests:0 ~started:0.0 line)
      in
      let view resp =
        match J.parse resp with
        | Ok v -> (
            match J.member "result" v with Some p -> Some (digest p) | None -> None)
        | Error _ -> None
      in
      (match remote with
      | Ok resp when Qturbo_service.Client.response_ok resp ->
          if view resp <> Some replayed then
            mismatch c "op %d: daemon response differs from the replay" op.id
      | _ -> c.service_errors <- c.service_errors + 1);
      if view local <> Some replayed then
        mismatch c "op %d: in-process handle_request differs from the replay"
          op.id

(* ---- passes ------------------------------------------------------------------ *)

type op_result = {
  rid : int;
  wall : float;  (** seconds, side spans excluded *)
  out_digest : string;
  values : (fval * fval) list;
}

let add_cache_delta c (s0 : Qturbo_core.Plan_cache.stats)
    (s1 : Qturbo_core.Plan_cache.stats) =
  c.cache_hits <- c.cache_hits + s1.hits - s0.hits;
  c.cache_misses <- c.cache_misses + s1.misses - s0.misses;
  c.cache_evictions <- c.cache_evictions + s1.evictions - s0.evictions

let add_store c =
  match CP.store_stats () with
  | None -> ()
  | Some s ->
      c.store_hits <- c.store_hits + s.Qturbo_store.Plan_store.hits;
      c.store_misses <- c.store_misses + s.Qturbo_store.Plan_store.misses;
      c.store_writes <- c.store_writes + s.Qturbo_store.Plan_store.writes;
      c.store_corrupt <- c.store_corrupt + s.Qturbo_store.Plan_store.corrupt

(* Time spent in side spans of [op_id] inside the interval [t0, t1]. *)
let side_time op_id ~t0 ~t1 =
  List.fold_left
    (fun acc s ->
      if s.side && s.parent = 0 && s.op = op_id && s.t0 >= t0 && s.t1 <= t1
      then acc +. (s.t1 -. s.t0)
      else acc)
    0.0 !spans

(* One pass over [ops].  Cold passes reset every cache before each
   operation (a fresh CLI process) and reopen the store as the CLI's
   --plan-store does; warm passes run [warm] once and keep the caches
   (a daemon after set-up). *)
let pass c ~ops ~warm ~store ~socket =
  CP.clear_caches ();
  CP.disable_store ();
  let store_dir =
    Option.map
      (fun root -> Filename.concat root (if !tracing then "traced" else "plain"))
      store
  in
  if warm <> [] then begin
    let t = !tracing in
    tracing := false;
    List.iter (fun op -> ignore (replay_op (counts ()) op)) warm;
    tracing := t
  end;
  List.map
    (fun op ->
      cur_op := op.id;
      if warm = [] then CP.clear_caches ();
      let s0 = CP.cache_stats () in
      let t0 = now () in
      if warm = [] then
        Option.iter
          (fun dir -> span "plan_store.open" (fun () -> CP.enable_store ~dir))
          store_dir;
      let out, values =
        match replay_op c op with
        | v -> v
        | exception e -> (Printexc.to_string e, [])
      in
      let t1 = now () in
      let wall = t1 -. t0 -. side_time op.id ~t0 ~t1 in
      add_cache_delta c s0 (CP.cache_stats ());
      if warm = [] then add_store c;
      let out_digest =
        match J.parse out with Ok v -> digest v | Error _ -> "error:" ^ out
      in
      if !tracing then begin
        if op.kind = "sweep_static" then serial_batch c op;
        Option.iter (fun socket -> service c ~socket op ~replayed:out_digest) socket
      end;
      { rid = op.id; wall; out_digest; values })
    ops

(* ---- per-layer metrics ------------------------------------------------------ *)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let layer_metrics c ~plain ~traced =
  let by name = List.filter (fun s -> s.name = name) !spans in
  (* self time: a span's duration minus the time its direct children cover *)
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !spans;
  let self s =
    s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt children s.sid) ~default:0.0
  in
  let durs name = List.map (fun s -> 1000.0 *. self s) (by name) in
  let calls name = float_of_int (List.length (by name)) in
  let busy name = List.fold_left ( +. ) 0.0 (durs name) in
  let p50 name = median (durs name) in
  let alloc name = List.fold_left (fun a s -> a +. s.alloc_mw) 0.0 (by name) in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let i = float_of_int in
  let wall rs = List.fold_left (fun a r -> a +. r.wall) 0.0 rs in
  let covered =
    List.fold_left
      (fun a s -> if s.parent = 0 && not s.side then a +. (s.t1 -. s.t0) else a)
      0.0 !spans
  in
  let traced_wall = wall traced and plain_wall = wall plain in
  let serial = busy "compiler.batch.serial" and par = busy "compiler.batch" in
  let roundtrip = busy "service.roundtrip" and handle = busy "service.handle" in
  let n_service = List.length (by "service.roundtrip") in
  [
    ("backend.instantiate.calls", calls "backend.instantiate");
    ("backend.instantiate.busy_ms", busy "backend.instantiate");
    ("backend.instantiate.p50_ms", p50 "backend.instantiate");
    ("shape.key.calls", calls "shape.key");
    ("shape.key.busy_ms", busy "shape.key");
    ("plan_cache.hits", i c.cache_hits);
    ("plan_cache.misses", i c.cache_misses);
    ("plan_cache.evictions", i c.cache_evictions);
    ("plan_cache.hit_ratio", ratio c.cache_hits c.cache_misses);
    ("plan_cache.hit.busy_ms", busy "plan_cache.hit");
    ("compile_plan.build.calls", calls "compile_plan.build");
    ("compile_plan.build.busy_ms", busy "compile_plan.build");
    ("compile_plan.build.alloc_mw", alloc "compile_plan.build");
    ("plan_store.open.busy_ms", busy "plan_store.open");
    ("plan_store.hits", i c.store_hits);
    ("plan_store.misses", i c.store_misses);
    ("plan_store.writes", i c.store_writes);
    ("plan_store.corrupt", i c.store_corrupt);
    ("plan_store.hit_ratio", ratio c.store_hits c.store_misses);
    ("plan_store.load.busy_ms", busy "plan_store.load");
    ("compile_plan.solve.calls", calls "compile_plan.solve");
    ("compile_plan.solve.busy_ms", busy "compile_plan.solve");
    ("compile_plan.solve.alloc_mw", alloc "compile_plan.solve");
    ("compile_plan.solve.degraded", i c.degraded);
    ("resilience.recovered", i c.recovered);
    ("td_compiler.compile.calls", calls "td_compiler.compile");
    ("td_compiler.compile.busy_ms", busy "td_compiler.compile");
    ("td_compiler.compile.segments", i c.td_segments);
    ("td_compiler.compile.plan_builds", i c.td_builds);
    ("compiler.batch.busy_ms", par);
    ("compiler.batch.serial_busy_ms", serial);
    ("par.batch_speedup", if par > 0.0 then serial /. par else 0.0);
    ("verifier.verify.calls", calls "verifier.verify");
    ("verifier.verify.busy_ms", busy "verifier.verify");
    ("verifier.verify.p50_ms", p50 "verifier.verify");
    ("verifier.not_executable", i c.not_executable);
    ("emit.busy_ms", busy "emit");
    ("emit.bytes", i c.emit_bytes);
    ("analysis.analyze.calls", calls "analysis.analyze");
    ("analysis.analyze.busy_ms", busy "analysis.analyze");
    ("service.roundtrip.busy_ms", roundtrip);
    ("service.handle.busy_ms", handle);
    ( "service.transport_ms",
      if n_service = 0 then 0.0 else (roundtrip -. handle) /. i n_service );
    ("service.errors", i c.service_errors);
    ( "trace.unattributed_share",
      if traced_wall > 0.0 then (traced_wall -. covered) /. traced_wall else 0.0 );
    ( "trace.overhead_pct",
      if plain_wall > 0.0 then 100.0 *. (traced_wall -. plain_wall) /. plain_wall
      else 0.0 );
  ]

(* Chrome trace-event JSON (chrome://tracing, Perfetto). *)
let write_spans path =
  let oc = open_out_bin path in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity !spans in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun k s ->
      if k > 0 then output_char oc ',';
      Printf.fprintf oc
        {|{"name":%s,"ph":"X","pid":1,"tid":1,"ts":%.1f,"dur":%.1f,"args":{"op":%d,"id":%d,"parent":%d,"side":%b,"alloc_mw":%.6f}}|}
        (J.quote s.name)
        (1e6 *. (s.t0 -. base))
        (1e6 *. (s.t1 -. s.t0))
        s.op s.sid s.parent s.side s.alloc_mw)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

let result_json (r : op_result) =
  Printf.sprintf {|{"id":%d,"wall_ms":%.6f,"digest":%s,"jobs":[%s]}|} r.rid
    (1000.0 *. r.wall) (J.quote r.out_digest)
    (String.concat ","
       (List.map
          (fun (t, e) -> job_json { t_sim = t; rel = e; failed = None })
          r.values))

let replay_main args =
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | k :: _ -> fail "bad argument %s" k
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  let load path = List.map (fun l -> op_of_json (J.parse_exn l)) (read_lines path) in
  let all = load (Option.get (get "ops")) in
  let ids =
    match get "ids" with
    | None | Some "" -> []
    | Some s -> List.map int_of_string (String.split_on_char ',' s)
  in
  let ops =
    List.map
      (fun id ->
        match List.find_opt (fun o -> o.id = id) all with
        | Some o -> o
        | None -> fail "no op %d" id)
      ids
  in
  let warm = match get "warm" with Some p -> load p | None -> [] in
  let store = get "store" in
  let trace = get "trace" = Some "1" in
  let c = counts () in
  let socket = get "socket" in
  let plain = pass c ~ops ~warm ~store ~socket in
  let traced =
    if trace then begin
      let c' = counts () in
      tracing := true;
      let r = pass c' ~ops ~warm ~store ~socket in
      tracing := false;
      List.iter2
        (fun a b ->
          if a.out_digest <> b.out_digest || a.values <> b.values then
            mismatch c' "op %d: traced replay differs from the plain replay"
              a.rid)
        plain r;
      c.mismatches <- c'.mismatches @ c.mismatches;
      Some (c', r)
    end
    else None
  in
  List.iter (fun r -> print_endline (result_json r)) plain;
  let layers =
    match traced with
    | Some (c', r) ->
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s:%.17g" (J.quote k) v)
             (layer_metrics c' ~plain ~traced:r))
    | None -> ""
  in
  Printf.printf {|{"summary":true,"ocaml":%s,"mismatches":[%s],"layers":{%s}}|}
    (J.quote Sys.ocaml_version)
    (String.concat "," (List.map J.quote (List.rev c.mismatches)))
    layers;
  print_newline ();
  Option.iter write_spans (get "spans")

let () =
  match Array.to_list Sys.argv with
  | _ :: "check" :: [ path ] -> check_main path
  | _ :: "replay" :: args -> replay_main args
  | _ ->
      prerr_endline "usage: probe.exe check OUTS | probe.exe replay --ops FILE ...";
      exit 2
