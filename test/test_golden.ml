(* Absolute golden suite: compiled outputs pinned bit for bit.

   Every case in [Golden_values] is compiled through the public entry
   points ([Compiler.compile] for static targets, [Td_compiler.compile]
   for driven models) on the backend registry's device, and every
   recorded float must match its hex rendering exactly.  Unlike the
   path-equivalence tests elsewhere (two code paths of one binary must
   agree), these values are absolute: a refactor of the numeric back end
   that moves any number fails here even when both paths move together.

   Fault injection is pinned off ([faults = Some Fault.empty]) so the
   suite is immune to a [QTURBO_FAULTS] setting in the environment, and
   every case runs at 1 and 4 pool domains. *)

open Qturbo_core
module G = Golden_values

let hex x = Printf.sprintf "%h" x

let check_float what want got =
  if not (String.equal want (hex got)) then
    Alcotest.failf "%s: want %s, got %s" what want (hex got)

let check_env what want got =
  Alcotest.(check int) (what ^ " length") (List.length want) (Array.length got);
  List.iteri
    (fun i w ->
      if not (String.equal w (hex got.(i))) then
        Alcotest.failf "%s.(%d): want %s, got %s" what i w (hex got.(i)))
    want

let options domains =
  {
    Compiler.default_options with
    Compiler.domains;
    faults = Some Qturbo_resilience.Fault.empty;
  }

let instantiate ~backend ~device ~model ~n =
  (Qturbo_backend.Backend.find_exn backend).Qturbo_backend.Backend.instantiate
    ?device ~model_name:model ~n ()

let label ~backend ~model ~n ~domains =
  Printf.sprintf "%s %s n=%d domains=%d" backend model n domains

let check_static domains (c : G.static_case) =
  let inst = instantiate ~backend:c.backend ~device:c.device ~model:c.model ~n:c.n in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.by_name ~name:c.model ~n:c.n)
         ~s:0.0)
  in
  let r =
    Compiler.compile ~options:(options domains)
      ~aais:inst.Qturbo_backend.Backend.aais ~target ~t_tar:G.t_tar ()
  in
  let what = label ~backend:c.backend ~model:c.model ~n:c.n ~domains in
  check_env (what ^ " env") c.env r.Compiler.env;
  check_float (what ^ " t_sim") c.t_sim r.Compiler.t_sim;
  check_float (what ^ " error_l1") c.error_l1 r.Compiler.error_l1;
  check_float (what ^ " relative_error") c.relative_error
    r.Compiler.relative_error;
  check_float (what ^ " eps1") c.eps1 r.Compiler.eps1;
  check_float (what ^ " theorem1_bound") c.theorem1_bound
    r.Compiler.theorem1_bound

let check_td domains (c : G.td_case) =
  let inst = instantiate ~backend:c.backend ~device:c.device ~model:c.model ~n:c.n in
  let td =
    Td_compiler.compile ~options:(options domains)
      ~aais:inst.Qturbo_backend.Backend.aais
      ~model:(Qturbo_models.Benchmarks.by_name ~name:c.model ~n:c.n)
      ~t_tar:G.t_tar ~segments:(List.length c.segments) ()
  in
  let what =
    Printf.sprintf "%s K=%d"
      (label ~backend:c.backend ~model:c.model ~n:c.n ~domains)
      (List.length c.segments)
  in
  Alcotest.(check int) (what ^ " segments") (List.length c.segments)
    (List.length td.Td_compiler.segments);
  List.iteri
    (fun k ((want : G.segment), (got : Td_compiler.segment_result)) ->
      let what = Printf.sprintf "%s segment %d" what k in
      check_env (what ^ " env") want.env got.Td_compiler.env;
      check_float (what ^ " duration") want.duration got.Td_compiler.duration;
      check_float (what ^ " error_l1") want.error_l1 got.Td_compiler.error_l1;
      check_float (what ^ " eps1") want.eps1 got.Td_compiler.eps1)
    (List.combine c.segments td.Td_compiler.segments);
  Alcotest.(check int) (what ^ " binding_segment") c.binding_segment
    td.Td_compiler.binding_segment;
  check_float (what ^ " t_sim") c.t_sim td.Td_compiler.t_sim

let () =
  let per_domains name check cases =
    List.map
      (fun domains ->
        Alcotest.test_case
          (Printf.sprintf "%s, domains %d" name domains)
          `Quick
          (fun () -> List.iter (check domains) cases))
      [ 1; 4 ]
  in
  Alcotest.run "golden"
    [
      ("static", per_domains "static compiles" check_static G.static_cases);
      ("td", per_domains "segment compiles" check_td G.td_cases);
    ]
