open Qturbo_aais
open Qturbo_pauli

let src = Logs.Src.create "qturbo.compiler" ~doc:"QTurbo compilation pipeline"

module Log = (val Logs.src_log src)

module Failure = Qturbo_resilience.Failure
module Fault = Qturbo_resilience.Fault
module Supervisor = Qturbo_resilience.Supervisor
module Diagnostic = Qturbo_analysis.Diagnostic

type options = {
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

let default_options =
  {
    refine = true;
    time_opt = true;
    no_opt_padding = 3.0;
    dt_factor = 1.25;
    max_constraint_iters = 24;
    time_floor = 1e-4;
    dense_linear_solver = false;
    generic_local_solver = false;
    domains = Qturbo_par.Pool.default_domains ();
    best_effort = false;
    deadline_seconds = None;
    faults = None;
    plan_cache = true;
  }

(* Observability hook for the pipeline stages.  Tests install a recorder
   to assert ordering properties ("no solver stage ran before rejection",
   "a cached compile skips plan-build") without relying on timing. *)
let stage_hook : (string -> unit) ref = ref (fun _ -> ())

type component_summary = {
  classification : string;
  channels : int;
  variables : int;
  min_time : float;
  eps2 : float;
}

type plan_stats = {
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

(* Where this compile's plan came from: a fresh front-end build, the
   in-memory LRU, or the on-disk store. *)
type provenance = Built | Cached | Stored

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

let classification_name = function
  | Local_solver.Const_channels -> "const"
  | Local_solver.Linear _ -> "linear"
  | Local_solver.Polar _ -> "polar"
  | Local_solver.Fixed_vars -> "fixed"
  | Local_solver.Generic -> "generic"

(* A component bundled with its solver-specific prepared state. *)
type prepared_comp =
  | Dynamic of Local_solver.prepared
  | Fixed of Fixed_solver.prepared

let prepare_components ~vars ~channels comps classifications =
  List.map2
    (fun comp classification ->
      match classification with
      | Local_solver.Fixed_vars -> Fixed (Fixed_solver.prepare ~vars ~channels comp)
      | Local_solver.Const_channels | Local_solver.Linear _
      | Local_solver.Polar _ | Local_solver.Generic ->
          Dynamic (Local_solver.prepare ~vars ~channels comp classification))
    comps classifications

(* ------------------------------------------------------------------ *)
(* Plan artifacts                                                      *)

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

type t = {
  device : device;
  support : Pauli_string.t list;
  skeleton : Linear_system.skeleton;
  structure_diags : Diagnostic.t list;
  key : string;
  build_seconds : float;
}

let support_of_target = Shape.support_of_target

(* The device section of a plan key: the whole AAIS rendered, the
   expensive half of the key on large devices (hundreds of KB at
   n ≈ 100).  It depends only on the AAIS, which every job of a batch
   and every request on a reused backend instance shares physically,
   so renders are memoized per [Aais.t] by physical identity.  The
   pool is the only mutable part of an [Aais.t] ([Variable.fresh]
   appends to it), so an entry also records the pool's variable count
   and a grown pool re-renders instead of being served a stale key.
   A lookup with the plan cache disabled renders fresh, like every
   other part of such a compile. *)
type key_memo_entry = {
  m_aais : Aais.t;
  m_generic : bool;
  m_vars : int;
  mutable m_key : string;
}

type device_key_stats = { renders : int; memo_hits : int; memo_size : int }

let key_memo_capacity = 16

(* most recently used first; guarded by [key_memo_lock] *)
let key_memo : key_memo_entry list ref = ref []
let key_memo_lock = Mutex.create ()
let key_renders = ref 0
let key_memo_hits = ref 0

let with_key_memo f =
  Mutex.lock key_memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock key_memo_lock) f

let render_device_key ~generic ~aais =
  with_key_memo (fun () -> incr key_renders);
  Printf.sprintf "g=%b|%s" generic (Shape.of_aais aais)

let device_key ~(options : options) ~aais =
  let generic = options.generic_local_solver in
  if not options.plan_cache then render_device_key ~generic ~aais
  else
    let vars = Variable.count aais.Aais.pool in
    let is_entry e = e.m_aais == aais && e.m_generic = generic in
    let cached =
      with_key_memo (fun () ->
          match List.find_opt is_entry !key_memo with
          | Some e when e.m_vars = vars ->
              incr key_memo_hits;
              key_memo := e :: List.filter (fun x -> x != e) !key_memo;
              Some e.m_key
          | _ -> None)
    in
    match cached with
    | Some key -> key
    | None ->
        (* render outside the lock: it is the slow part *)
        let key = render_device_key ~generic ~aais in
        let e =
          { m_aais = aais; m_generic = generic; m_vars = vars; m_key = key }
        in
        with_key_memo (fun () ->
            key_memo :=
              List.filteri
                (fun i _ -> i < key_memo_capacity)
                (e :: List.filter (fun x -> not (is_entry x)) !key_memo));
        key

(* Point the memo entry for [aais] at [key], an equal string a device
   part already holds (a plan built from another [Aais.t] of the same
   structure, or loaded from the store), so the key is kept once. *)
let share_device_key ~(options : options) ~aais key =
  if options.plan_cache then
    with_key_memo (fun () ->
        List.iter
          (fun e ->
            if
              e.m_aais == aais
              && e.m_generic = options.generic_local_solver
              && e.m_key != key && String.equal e.m_key key
            then e.m_key <- key)
          !key_memo)

let device_key_stats () =
  with_key_memo (fun () ->
      {
        renders = !key_renders;
        memo_hits = !key_memo_hits;
        memo_size = List.length !key_memo;
      })

let clear_key_memo () =
  with_key_memo (fun () ->
      key_memo := [];
      key_renders := 0;
      key_memo_hits := 0)

(* Single point of truth for the plan-key format (the device section and
   the support section, joined as [Shape.key] joins them); [lint]'s
   round-trip check re-derives keys through here. *)
let plan_key_of_device ~device_key ~support =
  device_key ^ "@@" ^ Shape.of_support support

let plan_key ~options ~aais ~target =
  plan_key_of_device
    ~device_key:(device_key ~options ~aais)
    ~support:(support_of_target target)

let build_device ~(options : options) ~device_key ~aais =
  let channels = Aais.channels aais in
  let vars = Aais.variables aais in
  let comps = Locality.decompose ~channels ~n_vars:(Array.length vars) in
  let classifications =
    List.map
      (fun comp ->
        match Local_solver.classify ~vars ~channels comp with
        | (Local_solver.Linear _ | Local_solver.Polar _)
          when options.generic_local_solver ->
            Local_solver.Generic
        | cls -> cls)
      comps
  in
  let prepared = prepare_components ~vars ~channels comps classifications in
  {
    aais;
    channels;
    vars;
    generic_local_solver = options.generic_local_solver;
    comps;
    classifications;
    prepared;
    device_key;
  }

(* The structure pass of [qturbo.analysis] takes a generic view of the
   system; convert the skeleton rows and [Locality] components. *)
let structure_rows ~index ~cells =
  Array.to_list
    (Array.mapi
       (fun i c ->
         { Qturbo_analysis.Structure.term = Term_index.string_of index i;
           cells = c })
       cells)

let structure_comps comps =
  List.map
    (fun (c : Locality.component) ->
      {
        Qturbo_analysis.Structure.id = c.Locality.id;
        channel_ids = c.Locality.channel_ids;
        var_ids = c.Locality.var_ids;
      })
    comps

(* ------------------------------------------------------------------ *)
(* Plan linting                                                        *)

(* [Plan_lint] (like [Structure]) takes a generic view so the analysis
   library stays independent of this one; convert our types and call
   in. *)

let classification_view (cl : Local_solver.classification) =
  let open Qturbo_analysis.Plan_lint in
  match cl with
  | Local_solver.Const_channels ->
      { name = "const"; class_vars = []; class_channels = [] }
  | Local_solver.Linear { var; slopes } ->
      { name = "linear"; class_vars = [ var ]; class_channels = List.map fst slopes }
  | Local_solver.Polar { amp; phase; cos_channels; sin_channels } ->
      {
        name = "polar";
        class_vars = [ amp; phase ];
        class_channels = List.map fst cos_channels @ List.map fst sin_channels;
      }
  | Local_solver.Fixed_vars ->
      { name = "fixed"; class_vars = []; class_channels = [] }
  | Local_solver.Generic ->
      { name = "generic"; class_vars = []; class_channels = [] }

let prepared_name = function
  | Dynamic p -> classification_name (Local_solver.classification_of p)
  | Fixed _ -> "fixed"

(* last occurrence of "@@" in a key: [Shape.key] joins the device and
   support sections with it, and only the final separator is ours to
   trust (labels inside the device section are free-form text) *)
let last_separator key =
  let rec go found i =
    if i + 1 >= String.length key then found
    else if key.[i] = '@' && key.[i + 1] = '@' then go (Some i) (i + 1)
    else go found (i + 1)
  in
  go None 0

let key_support_of key =
  match last_separator key with
  | None -> None
  | Some i -> (
      let body = String.sub key (i + 2) (String.length key - i - 2) in
      match
        String.split_on_char ',' body
        |> List.filter (fun s -> not (String.equal s ""))
        |> List.map Pauli_string.of_string
      with
      | terms -> Some terms
      | exception _ -> None)

let lint (plan : t) =
  let d = plan.device in
  let index = Linear_system.skeleton_index plan.skeleton in
  let channel_terms =
    (* hash-based dedup: devices carry O(n²) channels whose effect terms
       overlap heavily, and the comparison-sort over the raw concat
       dominates lint time on large devices *)
    let module Tbl = Hashtbl.Make (Pauli_string) in
    let seen = Tbl.create (4 * Array.length d.channels) in
    Array.iter
      (fun ch ->
        List.iter
          (fun (t, _) -> if not (Tbl.mem seen t) then Tbl.add seen t ())
          (Instruction.effect_terms ch))
      d.channels;
    Tbl.fold (fun t () acc -> t :: acc) seen []
  in
  Qturbo_analysis.Plan_lint.check
    {
      Qturbo_analysis.Plan_lint.key = plan.key;
      (* the device section is [d.device_key], rendered from the same
         aais when the device part was built (both the stored key and
         this one descend from it, so corruption of either side still
         mismatches); only the cheap support section is re-rendered *)
      rederived_key =
        plan_key_of_device ~device_key:d.device_key ~support:plan.support;
      support = plan.support;
      key_support = key_support_of plan.key;
      rows = Term_index.strings index;
      cells = Linear_system.skeleton_cells plan.skeleton;
      n_channels = Array.length d.channels;
      n_vars = Array.length d.vars;
      channel_terms;
      comps = structure_comps d.comps;
      classifications = List.map classification_view d.classifications;
      prepared_names = List.map prepared_name d.prepared;
    }

(* Strict-mode gate: fresh builds are linted before anyone can use (or
   cache) them.  [lint_plans := false] is the escape hatch for overhead
   measurement ([bench analysis]) and emergencies. *)
let lint_plans = ref true

(* ------------------------------------------------------------------ *)
(* Caches                                                              *)

let plan_cache : t Plan_cache.t = Plan_cache.create ~capacity:32
let device_cache : device Plan_cache.t = Plan_cache.create ~capacity:8

let cache_stats () = Plan_cache.stats plan_cache
let device_cache_stats () = Plan_cache.stats device_cache

let clear_caches () =
  Plan_cache.clear plan_cache;
  Plan_cache.clear device_cache;
  clear_key_memo ()

(* [device_key] is [device_key ~options ~aais], rendered by the caller *)
let obtain_device_keyed ~options ~device_key ~aais =
  if not options.plan_cache then build_device ~options ~device_key ~aais
  else
    match Plan_cache.find device_cache device_key with
    | Some d -> d
    | None ->
        let d = build_device ~options ~device_key ~aais in
        Plan_cache.add device_cache device_key d;
        d

let obtain_device ~options ~aais =
  obtain_device_keyed ~options ~device_key:(device_key ~options ~aais) ~aais

(* [device ()] runs inside the timed region, so a device part built on
   the way counts toward [build_seconds] *)
let build_with ~device ~target_shape =
  !stage_hook "plan-build";
  let t0 = Qturbo_util.Clock.now () in
  let device = device () in
  let skeleton =
    Linear_system.skeleton ~channels:device.channels ~support:target_shape
  in
  let structure_diags =
    Qturbo_analysis.Structure.check ~channels:device.channels
      ~variables:device.vars
      ~rows:
        (structure_rows
           ~index:(Linear_system.skeleton_index skeleton)
           ~cells:(Linear_system.skeleton_cells skeleton))
      ~comps:(structure_comps device.comps)
  in
  let plan =
    {
      device;
      support = target_shape;
      skeleton;
      structure_diags;
      key =
        plan_key_of_device ~device_key:device.device_key ~support:target_shape;
      build_seconds = Qturbo_util.Clock.now () -. t0;
    }
  in
  (if !lint_plans then
     match Diagnostic.errors (lint plan) with
     | [] -> ()
     | errs ->
         Log.err (fun m ->
             m "plan lint rejected a fresh build (%d errors)" (List.length errs));
         raise (Diagnostic.Rejected errs));
  plan

let build ?(options = default_options) ?device ~aais ~target_shape () =
  build_with ~target_shape ~device:(fun () ->
      match device with Some d -> d | None -> obtain_device ~options ~aais)

(* ------------------------------------------------------------------ *)
(* Persistent plan store                                               *)

module Plan_store = Qturbo_store.Plan_store

(* Marshaled closures are only decodable by the exact binary that wrote
   them (the runtime embeds code digests), so the store-format version
   bakes in the executable's identity — its ELF build-id, else its MD5:
   a rebuilt binary invalidates every prior entry as a counted version
   mismatch up front instead of a decode failure later.  An executable
   that cannot be identified gets no version, and no store: a shared
   placeholder tag would let every such binary accept every other's
   entries. *)
let store_version =
  let v =
    lazy
      (Option.map
         (fun id -> "qturbo-plan/1 " ^ id)
         (Plan_store.binary_identity Sys.executable_name))
  in
  fun () -> Lazy.force v

let store : Plan_store.t option ref = ref None

let enable_store ~dir =
  match store_version () with
  | Some version -> store := Some (Plan_store.open_store ~version ~dir)
  | None ->
      store := None;
      Log.warn (fun m ->
          m "cannot identify the executable %s; plan store %s left disabled"
            Sys.executable_name dir)

let disable_store () = store := None
let store_dir () = Option.map Plan_store.dir !store
let store_stats () = Option.map Plan_store.stats !store

(* A payload that passed the store's byte-level checks (magic, version,
   key, checksum) can still be semantic garbage — a hand-edited entry
   with a recomputed checksum.  The decode is exception-guarded and
   every deserialized plan passes the full [Plan_lint] gate before it
   is served.  Any failure demotes the store hit to a corrupt miss
   and the caller rebuilds. *)
let store_fetch ~key =
  match !store with
  | None -> None
  | Some st -> (
      match Plan_store.load st ~key with
      | None -> None
      | Some payload -> (
          match (Marshal.from_string payload 0 : t) with
          | exception _ ->
              Plan_store.reclassify_corrupt st;
              Log.warn (fun m ->
                  m "plan store entry failed to decode; rebuilding");
              None
          | p ->
              if p.key <> key || Diagnostic.has_errors (lint p) then begin
                Plan_store.reclassify_corrupt st;
                Log.warn (fun m ->
                    m "plan store entry failed the lint gate; rebuilding");
                None
              end
              else Some p))

let store_persist (p : t) =
  match !store with
  | None -> ()
  | Some st -> (
      match Marshal.to_string p [ Marshal.Closures ] with
      | payload -> ignore (Plan_store.save st ~key:p.key ~payload : bool)
      | exception _ ->
          Log.warn (fun m -> m "plan could not be marshaled for the store"))

(* Fetch-or-build a plan for an explicit support.  Returns the plan and
   where it came from: memory LRU, then on-disk store, then a fresh
   build (which back-fills both). *)
let obtain_for_support ~options ~aais ~support =
  if not options.plan_cache then
    (build ~options ~aais ~target_shape:support (), Built)
  else
    (* the lookup key's device section is the one render of the AAIS a
       cold build pays: the device part and the plan reuse it *)
    let device_key = device_key ~options ~aais in
    let key = plan_key_of_device ~device_key ~support in
    let ((p, _) as obtained) =
      match Plan_cache.find plan_cache key with
      | Some p ->
          !stage_hook "plan-cache-hit";
          (p, Cached)
      | None -> (
          match store_fetch ~key with
          | Some p ->
              !stage_hook "plan-store-hit";
              Plan_cache.add plan_cache p.key p;
              (* the deserialized device part is shareable too: cache it
                 so fresh shapes on the same device skip the prepare
                 pass *)
              Plan_cache.add device_cache p.device.device_key p.device;
              (p, Stored)
          | None ->
              (* [build_with] already linted this plan (raising on
                 errors) unless the caller switched the gate off *)
              let p =
                build_with ~target_shape:support ~device:(fun () ->
                    obtain_device_keyed ~options ~device_key ~aais)
              in
              Plan_cache.add plan_cache p.key p;
              store_persist p;
              (p, Built))
    in
    share_device_key ~options ~aais p.device.device_key;
    obtained

let obtain ~options ~aais ~target =
  obtain_for_support ~options ~aais ~support:(support_of_target target)

(* ------------------------------------------------------------------ *)
(* Input validation (shared with Td_compiler)                          *)

let validate_t_tar ~who t_tar =
  if not (Float.is_finite t_tar) then
    raise
      (Diagnostic.Rejected
         [
           Diagnostic.make ~code:"QT016" ~severity:Diagnostic.Error
             ~subject:Diagnostic.System
             ~hint:"pass a finite positive evolution time"
             (Printf.sprintf "%s: t_tar must be finite, got %h" who t_tar);
         ]);
  if t_tar <= 0.0 then invalid_arg (who ^ ": t_tar <= 0")

(* ------------------------------------------------------------------ *)
(* The numeric back-end                                                *)

module Segments = struct
  type segment = {
    env : float array;
    duration : float;
    alpha : float array;
    achieved : float array;
    error_l1 : float;
    eps1 : float;
    system : Linear_system.t;
    min_times : float array;
    eps2s : float array;
  }

  type t = {
    segments : segment list;
    binding_segment : int;
    constraint_iterations : int;
    warnings : string list;
    diagnostics : Diagnostic.t list;
    failures : Failure.t list;
    degraded : bool;
  }
end

(* Parallel strategy for a component sweep: when one component holds
   most of the channels (the single position component of a Rydberg
   AAIS), spreading components over the pool leaves every domain but
   one idle — run the sweep sequentially so the big component's inner
   parallelism (residual rows, Jacobian entries) gets the pool instead.
   Otherwise parallelize across components, one component per task. *)
let component_domains ~domains comps =
  let sizes = List.map (fun c -> List.length c.Locality.channel_ids) comps in
  let total = List.fold_left ( + ) 0 sizes in
  let largest = List.fold_left Int.max 0 sizes in
  if 2 * largest > total then (1, domains) else (domains, 1)

(* Run [f i] for every index in [0, total) on the pool, guarded.  The
   supervisor's pool guard raises [Expired] the moment the deadline
   passes (or an injected deadline fault fires), which abandons the
   sweep; the fallback rerun is unguarded, and because the deadline has
   by then expired for every index, each supervised solve
   short-circuits deterministically with a [Deadline_expired] record —
   the same degraded result at any domain count. *)
let guarded_for ~sup ~site ~domains ~total f =
  let run ~guarded =
    let guard =
      if guarded then Some (Supervisor.pool_guard sup ~site) else None
    in
    Qturbo_par.Pool.parallel_for ?guard ~domains ~chunk:1 ~total f
  in
  try run ~guarded:true with Supervisor.Expired -> run ~guarded:false

let alpha_achieved_of_env ~domains ~channels ~env ~t_sim =
  (* a kernel eval is ~10 ns; only very wide channel sets outweigh the
     pool dispatch (same granularity reasoning as Fixed_solver) *)
  let domains = if Array.length channels < 32_768 then 1 else domains in
  Qturbo_par.Pool.parallel_map ~domains
    (fun (c : Instruction.channel) -> Instruction.eval_channel c ~env *. t_sim)
    channels

(* Precheck every segment Hamiltonian, deduplicating findings that repeat
   across segments (the channels and bounds are shared, so a term
   unsupported in one segment is typically unsupported in all).  The
   structure pass was computed once at plan build; only the
   coefficient-dependent passes run per segment. *)
let precheck ?t_max ~plan ~tau_tar targets =
  let seen = Hashtbl.create 32 in
  List.concat_map
    (fun target ->
      List.filter
        (fun (d : Diagnostic.t) ->
          let key = (d.code, Diagnostic.subject_to_string d.subject) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (Qturbo_analysis.Analysis.static_checks ~aais:plan.device.aais ~target
           ~t_tar:tau_tar ?t_max ()
        @ plan.structure_diags))
    targets

(* The numeric back-end (paper §5–§6), segment-indexed: a static compile
   is one segment.  Each segment gets its own right-hand side, linear
   solve and dynamic-component solves; the runtime-fixed variables
   (atom positions) are shared, solved once against the binding segment
   (§5.3). *)
let solve_segments ~options ~strict ?t_max ~(plan : t) ~targets ~tau_tar () =
  let { aais; channels; vars; comps; prepared; _ } = plan.device in
  let k = List.length targets in
  let domains = options.domains in
  let warnings = ref [] in
  (* supervision context: deadline (absolute from here), fault spec
     (explicit, else QTURBO_FAULTS), best-effort flag *)
  let sup =
    Supervisor.make ?deadline_seconds:options.deadline_seconds
      ?faults:options.faults ~best_effort:options.best_effort ()
  in
  (* segments run on the pool; within a segment its components run on
     the pool too.  A one-segment solve runs inline, so a static compile
     still spreads its components; with several segments each runs its
     components sequentially on its worker.  Per-component results land
     in arrays by component index, so any schedule fills them alike. *)
  let comp_domains, fixed_domains = component_domains ~domains comps in
  let comps = Array.of_list (List.combine comps prepared) in
  let n_comps = Array.length comps in
  let over_segments f =
    Qturbo_par.Pool.parallel_map ~domains ~chunk:1 f (Array.init k Fun.id)
  in
  let over_comps ~site f =
    guarded_for ~sup ~site ~domains:comp_domains ~total:n_comps (fun i ->
        f i (fst comps.(i)) (snd comps.(i)))
  in
  (* stage 0: the static analyzer as a fail-fast precheck — provably
     broken inputs are rejected before any solver runs *)
  !stage_hook "precheck";
  let diagnostics = precheck ?t_max ~plan ~tau_tar targets in
  if strict then Qturbo_analysis.Analysis.check_or_raise diagnostics;
  List.iter
    (fun d ->
      if d.Diagnostic.severity = Diagnostic.Warning then
        warnings := Diagnostic.to_string d :: !warnings)
    diagnostics;
  (* stage 1: per-segment right-hand sides against the plan's skeleton,
     and the global linear solve over synthesized variables *)
  !stage_hook "linear-solve";
  let systems =
    Array.of_list
      (List.map
         (fun target ->
           Linear_system.instantiate plan.skeleton ~target ~t_tar:tau_tar)
         targets)
  in
  let lins =
    over_segments (fun s ->
        (if options.dense_linear_solver then Linear_system.solve_dense
         else Linear_system.solve)
          systems.(s))
  in
  let alphas = Array.map (fun l -> l.Qturbo_linalg.Sparse_solve.x) lins in
  (* stage 2: evolution-time optimisation — per segment, the bottleneck
     of its components' shortest feasible times *)
  let min_time_results =
    over_segments (fun s ->
        let times = Array.make n_comps 0.0 in
        let failures = Array.make n_comps [] in
        over_comps ~site:"min-time" (fun i _ p ->
            match p with
            | Dynamic p ->
                let t, fs =
                  Local_solver.min_time_supervised ~sup ~alpha:alphas.(s) p
                in
                times.(i) <- t;
                failures.(i) <- fs
            | Fixed _ -> ());
        (times, failures))
  in
  let min_times = Array.map fst min_time_results in
  let bottlenecks = Array.map (Array.fold_left Float.max 0.0) min_times in
  if Array.mem infinity bottlenecks then
    warnings :=
      "some component is infeasible at any evolution time" :: !warnings;
  let t_dyn =
    Array.map
      (fun bottleneck ->
        let t_base =
          if bottleneck = infinity || bottleneck = 0.0 then options.time_floor
          else Float.max options.time_floor bottleneck
        in
        if options.time_opt then t_base else t_base *. options.no_opt_padding)
      bottlenecks
  in
  (* stage 3: the shared runtime-fixed layout, solved against the binding
     segment (largest fixed-channel amplitude demand α/T), growing T while
     the layout violates device geometry (§5.2).  The retry loop is
     hard-bounded: exhausting [max_constraint_iters] (or the deadline)
     produces a classified failure and the best layout found, never an
     unbounded spin. *)
  !stage_hook "local-solve";
  let fixed =
    Array.of_list
      (List.filter_map
         (fun i -> match snd comps.(i) with Fixed f -> Some (i, f) | _ -> None)
         (List.init n_comps Fun.id))
  in
  let fixed_cids =
    List.concat_map
      (fun (i, _) -> (fst comps.(i)).Locality.channel_ids)
      (Array.to_list fixed)
  in
  let demand s =
    List.fold_left
      (fun acc cid -> Float.max acc (Float.abs alphas.(s).(cid) /. t_dyn.(s)))
      0.0 fixed_cids
  in
  let sb = ref 0 in
  for s = 1 to k - 1 do
    if demand s > demand !sb then sb := s
  done;
  let sb = !sb in
  let retry_fault =
    Fault.fires (Supervisor.faults sup) ~site:"constraint-loop" ~component:(-1)
    = Some Fault.Retry
  in
  let layout_eps2 = Array.make n_comps 0.0 in
  let rec attempt t iter =
    let env = Array.map (fun (v : Variable.t) -> v.Variable.init) vars in
    let failures = Array.make (Array.length fixed) [] in
    guarded_for ~sup ~site:"local-solve" ~domains:comp_domains
      ~total:(Array.length fixed) (fun j ->
        let i, f = fixed.(j) in
        let r, fs =
          Fixed_solver.solve_supervised ~domains:fixed_domains ~sup
            ~alpha:alphas.(sb) ~t_sim:t f
        in
        List.iter (fun (v, x) -> env.(v) <- x) r.Fixed_solver.assignments;
        layout_eps2.(i) <- r.Fixed_solver.eps2;
        failures.(j) <- fs);
    let violations =
      if retry_fault then
        [ "injected fault: constraint-loop=retry forces a violation" ]
      else aais.Aais.check_fixed env
    in
    let exhausted = iter >= options.max_constraint_iters in
    if
      violations = [] || exhausted
      || Supervisor.site_expired sup ~site:"constraint-loop" ~component:(-1)
    then begin
      let record =
        if violations = [] then []
        else begin
          let reason =
            Printf.sprintf "%s after %d iterations: %s"
              (if exhausted then "layout constraints unresolved"
               else "deadline expired with layout constraints unresolved")
              iter
              (String.concat "; " violations)
          in
          warnings := reason :: !warnings;
          [
            Failure.make ~component:(-1) ~site:"constraint-loop" ~stage:""
              ~fatal:false
              ~class_:
                (if exhausted then Failure.Position_retry_exhausted
                 else Failure.Deadline_expired)
              reason;
          ]
        end
      in
      (t, env, iter, List.concat (Array.to_list failures) @ record)
    end
    else attempt (t *. options.dt_factor) (iter + 1)
  in
  let t_binding, fixed_env, constraint_iterations, layout_failures =
    attempt t_dyn.(sb) 0
  in
  (* the shared layout's amplitude per fixed channel, evaluated once —
     every segment reads the same values *)
  let is_fixed = Array.make (Array.length channels) false in
  let fixed_val = Array.make (Array.length channels) 0.0 in
  List.iter
    (fun cid ->
      is_fixed.(cid) <- true;
      fixed_val.(cid) <- Instruction.eval_channel channels.(cid) ~env:fixed_env)
    fixed_cids;
  (* per-segment duration.  A single segment runs at the layout's T.
     With several, each is stretched so the shared layout integrates to
     its required B, never faster than its dynamic bottleneck; the
     binding segment additionally keeps the layout's T. *)
  let durations =
    Array.init k (fun s ->
        if k = 1 then t_binding
        else
          let t_fixed =
            List.fold_left
              (fun acc cid ->
                let amp = fixed_val.(cid) in
                if Float.abs amp > 1e-12 then
                  Float.max acc (alphas.(s).(cid) /. amp)
                else acc)
              0.0 fixed_cids
          in
          let t = Float.max t_dyn.(s) t_fixed in
          if s = sb then Float.max t t_binding else t)
  in
  (* stage 4: per segment, iterative refinement (§6.2) — re-solve the
     runtime-dynamic channels against the residual left by the achieved
     fixed amplitudes — then the dynamic components at the segment's
     duration.  Components write disjoint variable slots, so the env is
     the same under any schedule.  A fixed component only reports its
     residual: against the achieved layout when refining, else the
     layout solve's own. *)
  let refine_expired =
    options.refine && Supervisor.site_expired sup ~site:"refine" ~component:(-1)
  in
  let refine = options.refine && not refine_expired in
  let solve_segment s =
    let ls = systems.(s) and alpha = alphas.(s) and t_sim = durations.(s) in
    let alpha_dyn =
      if not refine then alpha
      else
        let adjusted_rows =
          List.map
            (fun { Qturbo_linalg.Sparse_solve.cells; rhs } ->
              let fixed_part =
                List.fold_left
                  (fun acc (cid, coeff) ->
                    if is_fixed.(cid) then
                      acc +. (coeff *. (fixed_val.(cid) *. t_sim))
                    else acc)
                  0.0 cells
              in
              {
                Qturbo_linalg.Sparse_solve.cells =
                  List.filter (fun (cid, _) -> not is_fixed.(cid)) cells;
                rhs = rhs -. fixed_part;
              })
            (Linear_system.rows ls)
        in
        (Qturbo_linalg.Sparse_solve.solve ~ncols:(Array.length channels)
           adjusted_rows)
          .Qturbo_linalg.Sparse_solve.x
    in
    let env = Array.copy fixed_env in
    let eps2s = Array.make n_comps 0.0 and failures = Array.make n_comps [] in
    over_comps ~site:"refine" (fun i comp p ->
        match p with
        | Dynamic p ->
            let { Local_solver.assignments; eps2 }, fs =
              Local_solver.solve_supervised ~sup ~alpha:alpha_dyn ~t_sim p
            in
            List.iter (fun (v, x) -> env.(v) <- x) assignments;
            eps2s.(i) <- eps2;
            failures.(i) <- fs
        | Fixed _ when refine ->
            eps2s.(i) <-
              List.fold_left
                (fun acc cid ->
                  acc +. Float.abs ((fixed_val.(cid) *. t_sim) -. alpha.(cid)))
                0.0 comp.Locality.channel_ids
        | Fixed _ -> eps2s.(i) <- layout_eps2.(i));
    let achieved = alpha_achieved_of_env ~domains ~channels ~env ~t_sim in
    ( {
        Segments.env;
        duration = t_sim;
        alpha;
        achieved;
        error_l1 = Linear_system.residual_l1 ls ~alpha:achieved;
        eps1 = lins.(s).Qturbo_linalg.Sparse_solve.residual_l1;
        system = ls;
        min_times = min_times.(s);
        eps2s;
      },
      failures )
  in
  let solved = over_segments solve_segment in
  (* failures, in pipeline order: evolution-time search, the layout's
     final solves and constraint-loop record, refinement expiry, then the
     dynamic solves (segment order, component order within) *)
  let per_comp results =
    List.concat_map
      (fun (_, failures) -> List.concat (Array.to_list failures))
      (Array.to_list results)
  in
  let failures =
    per_comp min_time_results @ layout_failures
    @ (if refine_expired then
         [
           Failure.make ~component:(-1) ~site:"refine" ~stage:"" ~fatal:false
             ~class_:Failure.Deadline_expired
             "deadline expired before refinement; returning unrefined result";
         ]
       else [])
    @ per_comp solved
  in
  let degraded = List.exists (fun f -> f.Failure.fatal) failures in
  if degraded && not (Supervisor.best_effort sup) then
    raise (Failure.Failed failures);
  {
    Segments.segments = List.map fst (Array.to_list solved);
    binding_segment = sb;
    constraint_iterations;
    warnings = List.rev !warnings;
    diagnostics;
    failures;
    degraded;
  }

(* The time-independent compile: one segment of the shared back-end,
   repackaged with the per-component summary and plan provenance. *)
let solve_from ~t0 ~provenance ~options ~strict ?t_max ~plan ~target ~t_tar () =
  validate_t_tar ~who:"Compiler.compile" t_tar;
  if Pauli_sum.n_qubits target > plan.device.aais.Aais.n_qubits then
    invalid_arg "Compiler.compile: target touches qubits outside the AAIS";
  let plan_index = Linear_system.skeleton_index plan.skeleton in
  List.iter
    (fun (s, _) ->
      if
        (not (Pauli_string.is_identity s))
        && Term_index.row_of plan_index s = None
      then
        invalid_arg "Compile_plan.solve: target term outside the plan's shape")
    (Pauli_sum.terms target);
  let solve_t0 = Qturbo_util.Clock.now () in
  let r =
    solve_segments ~options ~strict ?t_max ~plan ~targets:[ target ]
      ~tau_tar:t_tar ()
  in
  let s = List.hd r.Segments.segments in
  let ls = s.Segments.system in
  let b_norm =
    Array.fold_left (fun acc b -> acc +. Float.abs b) 0.0 ls.Linear_system.b_tar
  in
  let eps2_total = Array.fold_left ( +. ) 0.0 s.Segments.eps2s in
  let components =
    List.mapi
      (fun i ((comp : Locality.component), cls) ->
        {
          classification = classification_name cls;
          channels = List.length comp.Locality.channel_ids;
          variables = List.length comp.Locality.var_ids;
          min_time = s.Segments.min_times.(i);
          eps2 = s.Segments.eps2s.(i);
        })
      (List.combine plan.device.comps plan.device.classifications)
  in
  let now = Qturbo_util.Clock.now () in
  let cache = Plan_cache.stats plan_cache in
  {
    env = s.Segments.env;
    t_sim = s.Segments.duration;
    alpha_target = s.Segments.alpha;
    alpha_achieved = s.Segments.achieved;
    error_l1 = s.Segments.error_l1;
    relative_error =
      (if b_norm > 0.0 then s.Segments.error_l1 /. b_norm *. 100.0 else 0.0);
    eps1 = s.Segments.eps1;
    eps2_total;
    theorem1_bound = (Linear_system.norm1 ls *. eps2_total) +. s.Segments.eps1;
    components;
    constraint_iterations = r.Segments.constraint_iterations;
    compile_seconds = now -. t0;
    warnings = r.Segments.warnings;
    diagnostics = r.Segments.diagnostics;
    failures = r.Segments.failures;
    degraded = r.Segments.degraded;
    plan =
      {
        cache_enabled = options.plan_cache;
        cache_hit = provenance = Cached;
        store_enabled = Option.is_some !store;
        store_hit = provenance = Stored;
        cache_hits = cache.Plan_cache.hits;
        cache_misses = cache.Plan_cache.misses;
        cache_discarded = cache.Plan_cache.discarded;
        build_seconds =
          (* a store hit skipped the front end too; the build time baked
             into the deserialized plan belongs to the writer process *)
          (match provenance with Built -> plan.build_seconds | _ -> 0.0);
        solve_seconds = now -. solve_t0;
      };
  }

let solve ?(options = default_options) ?(strict = true) ?t_max
    ?(provenance = Built) ~plan ~coeffs ~t_tar () =
  solve_from ~t0:(Qturbo_util.Clock.now ()) ~provenance ~options ~strict ?t_max
    ~plan ~target:coeffs ~t_tar ()

let compile ?(options = default_options) ?(strict = true) ?t_max ~aais ~target
    ~t_tar () =
  validate_t_tar ~who:"Compiler.compile" t_tar;
  if Pauli_sum.n_qubits target > aais.Aais.n_qubits then
    invalid_arg "Compiler.compile: target touches qubits outside the AAIS";
  let t0 = Qturbo_util.Clock.now () in
  let plan, provenance = obtain ~options ~aais ~target in
  solve_from ~t0 ~provenance ~options ~strict ?t_max ~plan ~target ~t_tar ()
