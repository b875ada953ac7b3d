(* Absolute golden suite for the verifier: the independent physics check
   of a compiled pulse, pinned bit for bit.

   Each case compiles a benchmark target on the backend registry's
   device and runs the backend's [verify], which rebuilds the physical
   simulator Hamiltonian from the compiled environment and compares it
   with the target.  The error figures are recorded with [%h] so any
   change to how that Hamiltonian is assembled or summed (term order,
   cancellation, pruning) shows up here even when the compiler's own
   numbers stay put.

   The Rydberg n=300 case compiles against the automatic interaction
   cutoff while the verifier rebuilds every van der Waals tail, so its
   [consistent_with_compiler] is pinned [false]: the truncation error is
   real physics the compiler does not count.  The Heisenberg and
   ion-trap compiles are exact, so their pins are zeros: every rebuilt
   term must cancel its target term exactly and leave no residue.

   Fault injection is pinned off and every case runs at 1 and 4 pool
   domains. *)

open Qturbo_core

type case = {
  backend : string;
  cutoff : string option;
  model : string;
  n : int;
  error_l1 : string;
  relative_error : string;
  max_term_error : string;
  consistent : bool;
}

let t_tar = 1.0

let cases =
  [
    {
      backend = "rydberg";
      cutoff = Some "all-pairs";
      model = "ising-cycle";
      n = 93;
      error_l1 = "0x1.a4790951f7f9cp+0";
      relative_error = "0x1.c41f0cc63ef11p-1";
      max_term_error = "0x1.00d07d8788a8bp-6";
      consistent = true;
    };
    {
      backend = "rydberg";
      cutoff = None;
      model = "ising-cycle";
      n = 300;
      error_l1 = "0x1.93c3f8e1cddfcp+2";
      relative_error = "0x1.0d2d5096893fdp+0";
      max_term_error = "0x1.00058d749476ep-6";
      consistent = false;
    };
    {
      backend = "heisenberg";
      cutoff = None;
      model = "heis-chain";
      n = 93;
      error_l1 = "0x0p+0";
      relative_error = "0x0p+0";
      max_term_error = "0x0p+0";
      consistent = true;
    };
    {
      backend = "iontrap";
      cutoff = None;
      model = "ising-chain";
      n = 43;
      error_l1 = "0x0p+0";
      relative_error = "0x0p+0";
      max_term_error = "0x0p+0";
      consistent = true;
    };
  ]

let hex x = Printf.sprintf "%h" x

let check_float what want got =
  if not (String.equal want (hex got)) then
    Alcotest.failf "%s: want %s, got %s" what want (hex got)

let options domains =
  {
    Compiler.default_options with
    Compiler.domains;
    faults = Some Qturbo_resilience.Fault.empty;
  }

let check domains c =
  let inst =
    (Qturbo_backend.Backend.find_exn c.backend).Qturbo_backend.Backend.instantiate
      ?cutoff:c.cutoff ~model_name:c.model ~n:c.n ()
  in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.by_name ~name:c.model ~n:c.n)
         ~s:0.0)
  in
  let r =
    Compiler.compile ~options:(options domains)
      ~aais:inst.Qturbo_backend.Backend.aais ~target ~t_tar ()
  in
  let v = inst.Qturbo_backend.Backend.verify ~target ~t_tar r in
  let what =
    Printf.sprintf "%s %s n=%d domains=%d" c.backend c.model c.n domains
  in
  check_float (what ^ " error_l1") c.error_l1 v.Verifier.error_l1;
  check_float (what ^ " relative_error") c.relative_error
    v.Verifier.relative_error;
  check_float (what ^ " max_term_error") c.max_term_error
    v.Verifier.max_term_error;
  Alcotest.(check bool)
    (what ^ " consistent_with_compiler")
    c.consistent v.Verifier.consistent_with_compiler

let () =
  Alcotest.run "golden-verifier"
    [
      ( "verify",
        List.map
          (fun domains ->
            Alcotest.test_case
              (Printf.sprintf "verifier reports, domains %d" domains)
              `Quick
              (fun () -> List.iter (check domains) cases))
          [ 1; 4 ] );
    ]
