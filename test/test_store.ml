(* Tests for the persistent plan store: entry format validation (the
   corruption suite), the Compile_plan integration (cold-process reuse,
   fall-back-to-rebuild, self-repair), and bitwise identity of compile
   results with the store on or off at several domain counts. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module PS = Qturbo_store.Plan_store

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }

let rydberg_for n = Rydberg.build ~spec:relaxed_line ~n

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

(* temp_file reserves a unique name; the store recreates it as a dir *)
let fresh_dir () =
  let f = Filename.temp_file "qturbo-store-test" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

(* ---- Plan_store unit tests: byte-level validation ---- *)

let with_raw_store f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      f (PS.open_store ~version:"test/1" ~dir) dir)

let check_stats msg store ~hits ~misses ~corrupt ~version_mismatch ~writes =
  let s = PS.stats store in
  Alcotest.(check int) (msg ^ ": hits") hits s.PS.hits;
  Alcotest.(check int) (msg ^ ": misses") misses s.PS.misses;
  Alcotest.(check int) (msg ^ ": corrupt") corrupt s.PS.corrupt;
  Alcotest.(check int)
    (msg ^ ": version_mismatch")
    version_mismatch s.PS.version_mismatch;
  Alcotest.(check int) (msg ^ ": writes") writes s.PS.writes

let test_store_roundtrip () =
  with_raw_store @@ fun store _dir ->
  let key = "some structural key\nwith newlines"
  and payload = "opaque \x00 binary \xff payload" in
  Alcotest.(check bool) "save" true (PS.save store ~key ~payload);
  Alcotest.(check (option string)) "load" (Some payload)
    (PS.load store ~key);
  Alcotest.(check (option string)) "other key absent" None
    (PS.load store ~key:"different key");
  check_stats "round-trip" store ~hits:1 ~misses:1 ~corrupt:0
    ~version_mismatch:0 ~writes:1;
  (* a save replaces the prior entry *)
  Alcotest.(check bool) "re-save" true (PS.save store ~key ~payload:"v2");
  Alcotest.(check (option string)) "replaced" (Some "v2")
    (PS.load store ~key)

let test_store_corruption_suite () =
  with_raw_store @@ fun store _dir ->
  let key = "corruption victim" and payload = "payload bytes to protect" in
  let path = PS.entry_path store ~key in
  let plant () = ignore (PS.save store ~key ~payload) in
  let expect_invalid msg =
    match PS.load store ~key with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: load accepted a damaged entry" msg
  in
  (* truncated file *)
  plant ();
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole / 2));
  expect_invalid "truncated";
  (* garbage bytes *)
  write_file path "complete garbage, not even a header";
  expect_invalid "garbage";
  (* one flipped payload byte breaks the checksum *)
  plant ();
  let whole = read_file path in
  let b = Bytes.of_string whole in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
  write_file path (Bytes.to_string b);
  expect_invalid "flipped byte";
  (* an entry written under a different store-format version *)
  plant ();
  let other = PS.open_store ~version:"test/2" ~dir:(PS.dir store) in
  Alcotest.(check (option string)) "version mismatch" None
    (PS.load other ~key);
  check_stats "version mismatch counted" other ~hits:0 ~misses:0 ~corrupt:0
    ~version_mismatch:1 ~writes:0;
  (* the damage was counted, never raised *)
  let s = PS.stats store in
  Alcotest.(check int) "three corrupt loads" 3 s.PS.corrupt;
  (* ... and a fresh save repairs the entry *)
  plant ();
  Alcotest.(check (option string)) "repaired" (Some payload)
    (PS.load store ~key)

let test_store_reclassify () =
  with_raw_store @@ fun store _dir ->
  ignore (PS.save store ~key:"k" ~payload:"p");
  ignore (PS.load store ~key:"k");
  PS.reclassify_corrupt store;
  check_stats "reclassified" store ~hits:0 ~misses:0 ~corrupt:1
    ~version_mismatch:0 ~writes:1

let test_store_unusable_dir () =
  (* a directory that cannot be created: loads miss, saves fail, nothing
     raises *)
  let dir = Filename.concat "/dev/null" "not-a-dir" in
  let store = PS.open_store ~version:"test/1" ~dir in
  Alcotest.(check (option string)) "load misses" None (PS.load store ~key:"k");
  Alcotest.(check bool) "save fails" false
    (PS.save store ~key:"k" ~payload:"p");
  let s = PS.stats store in
  Alcotest.(check int) "write error counted" 1 s.PS.write_errors

(* ---- binary identity: the ELF build-id reader ---- *)

let pt_load = 1
let pt_note = 4

(* one note: 12-byte header, then name and descriptor each padded to 4
   bytes; [?descsz] overrides the declared descriptor size *)
let note ?descsz ~name ~kind desc =
  let pad s = s ^ String.make ((4 - (String.length s mod 4)) mod 4) '\000' in
  let h = Bytes.create 12 in
  Bytes.set_int32_le h 0 (Int32.of_int (String.length name));
  Bytes.set_int32_le h 4
    (Int32.of_int (Option.value descsz ~default:(String.length desc)));
  Bytes.set_int32_le h 8 (Int32.of_int kind);
  Bytes.to_string h ^ pad name ^ pad desc

(* An ELF64-LE file: the 64-byte header, one 56-byte program header per
   segment, then the segments' bytes in order.  [?ident] replaces the
   leading identification bytes, [?phnum] the declared header count. *)
let elf ?(ident = "\x7fELF\002\001\001") ?phnum segments =
  let phoff = 64 in
  let head = Bytes.make (phoff + (56 * List.length segments)) '\000' in
  Bytes.blit_string ident 0 head 0 (String.length ident);
  Bytes.set_int64_le head 0x20 (Int64.of_int phoff);
  Bytes.set_uint16_le head 0x36 56;
  Bytes.set_uint16_le head 0x38
    (Option.value phnum ~default:(List.length segments));
  ignore
    (List.fold_left
       (fun (i, off) (kind, bytes) ->
         let ph = phoff + (56 * i) in
         Bytes.set_int32_le head ph (Int32.of_int kind);
         Bytes.set_int64_le head (ph + 8) (Int64.of_int off);
         Bytes.set_int64_le head (ph + 32) (Int64.of_int (String.length bytes));
         Bytes.set_int64_le head (ph + 48) 4L;
         (i + 1, off + String.length bytes))
       (0, Bytes.length head) segments);
  Bytes.to_string head ^ String.concat "" (List.map snd segments)

let build_id = "\x01\x23\x45\x67\x89\xab\xcd\xef\x00\xff"
let gnu_build_id = note ~name:"GNU\000" ~kind:3 build_id

(* a valid executable image: a loadable segment, then a note segment
   whose build-id follows a non-GNU note and a GNU note of another
   type *)
let valid_elf =
  elf
    [
      (pt_load, String.make 40 'x');
      ( pt_note,
        note ~name:"Xen\000" ~kind:3 "not-it"
        ^ note ~name:"GNU\000" ~kind:5 "property"
        ^ gnu_build_id );
    ]

let identity_of_bytes bytes =
  let path = Filename.temp_file "qturbo-identity-test" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path bytes;
      PS.binary_identity path)

let md5_form bytes = Some ("md5:" ^ Digest.to_hex (Digest.string bytes))

let test_identity_elf_cases () =
  let check msg expect bytes =
    Alcotest.(check (option string)) msg expect (identity_of_bytes bytes)
  in
  check "build-id after other notes" (Some "build-id:0123456789abcdef00ff")
    valid_elf;
  check "build-id in a later note segment"
    (Some "build-id:0123456789abcdef00ff")
    (elf
       [
         (pt_note, note ~name:"stapsdt\000" ~kind:3 "probe");
         (pt_note, gnu_build_id);
       ]);
  let fallback msg bytes = check msg (md5_form bytes) bytes in
  fallback "no PT_NOTE" (elf [ (pt_load, gnu_build_id) ]);
  fallback "no build-id note"
    (elf [ (pt_note, note ~name:"GNU\000" ~kind:1 "abi-tag") ]);
  fallback "empty build-id" (elf [ (pt_note, note ~name:"GNU\000" ~kind:3 "") ]);
  fallback "truncated file header" (String.sub valid_elf 0 40);
  fallback "truncated program headers" (String.sub valid_elf 0 100);
  fallback "truncated note segment"
    (String.sub valid_elf 0 (String.length valid_elf - 4));
  fallback "ELF32 header"
    (elf ~ident:"\x7fELF\001\001\001" [ (pt_note, gnu_build_id) ]);
  fallback "big-endian header"
    (elf ~ident:"\x7fELF\002\002\001" [ (pt_note, gnu_build_id) ]);
  fallback "not an ELF file" "#!/bin/sh\necho hello\n";
  fallback "empty file" "";
  fallback "descsz runs past the segment"
    (elf [ (pt_note, note ~descsz:4096 ~name:"GNU\000" ~kind:3 build_id) ]);
  fallback "absurd phnum" (elf ~phnum:0xffff [ (pt_note, gnu_build_id) ]);
  fallback "phnum past the end" (elf ~phnum:60000 [ (pt_note, gnu_build_id) ])

let test_identity_unreadable () =
  Alcotest.(check (option string)) "nonexistent path" None
    (PS.binary_identity "/nonexistent/qturbo-no-such-binary");
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      Alcotest.(check (option string)) "a directory" None
        (PS.binary_identity dir))

(* byte flips and truncations of a valid image: always an answer (the
   build-id or the whole-file fallback), never an exception *)
let prop_identity_total =
  QCheck.Test.make ~name:"identity of damaged ELF images is total" ~count:300
    QCheck.(
      pair
        (int_bound (String.length valid_elf))
        (small_list
           (pair (int_bound (String.length valid_elf - 1)) (int_range 1 255))))
    (fun (keep, flips) ->
      let b = Bytes.of_string valid_elf in
      List.iter
        (fun (i, x) ->
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
        flips;
      let bytes = Bytes.sub_string b 0 keep in
      match identity_of_bytes bytes with
      | Some id ->
          id = Option.get (md5_form bytes)
          || String.starts_with ~prefix:"build-id:" id
      | None -> false)

(* the first sequence that looks like an NT_GNU_BUILD_ID note (namesz 4,
   type 3, name "GNU") in the raw bytes: an oracle independent of the
   program-header walk *)
let scan_build_id bytes =
  let len = String.length bytes in
  let rec go i =
    if i + 16 > len then None
    else if
      String.sub bytes i 4 = "\004\000\000\000"
      && String.sub bytes (i + 8) 8 = "\003\000\000\000GNU\000"
    then
      let descsz = Int32.to_int (String.get_int32_le bytes (i + 4)) in
      if descsz > 0 && descsz <= 64 && i + 16 + descsz <= len then
        Some (String.sub bytes (i + 16) descsz)
      else go (i + 1)
    else go (i + 1)
  in
  go 0

let test_store_version_form () =
  let v = Compile_plan.store_version () in
  Alcotest.(check (option string)) "stable across calls" v
    (Compile_plan.store_version ());
  let exe = read_file Sys.executable_name in
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  let expect =
    match scan_build_id exe with
    | Some id when String.starts_with ~prefix:"\x7fELF" exe ->
        "build-id:" ^ hex id
    | _ -> "md5:" ^ Digest.to_hex (Digest.string exe)
  in
  Alcotest.(check (option string))
    "version form"
    (Some ("qturbo-plan/1 " ^ expect))
    v

(* a store written under one binary's identity is a counted version
   mismatch under another's *)
let test_identity_separates_stores () =
  let other_elf =
    elf [ (pt_note, note ~name:"GNU\000" ~kind:3 "another build") ]
  in
  let version bytes =
    "qturbo-plan/1 " ^ Option.get (identity_of_bytes bytes)
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let writer = PS.open_store ~version:(version valid_elf) ~dir in
      ignore (PS.save writer ~key:"k" ~payload:"p");
      let reader = PS.open_store ~version:(version other_elf) ~dir in
      Alcotest.(check (option string)) "rejected" None (PS.load reader ~key:"k");
      check_stats "other binary" reader ~hits:0 ~misses:0 ~corrupt:0
        ~version_mismatch:1 ~writes:0;
      Alcotest.(check (option string)) "same binary still hits" (Some "p")
        (PS.load writer ~key:"k"))

(* ---- Compile_plan integration ---- *)

let with_store f =
  let dir = fresh_dir () in
  Compile_plan.clear_caches ();
  Compile_plan.enable_store ~dir;
  Fun.protect
    ~finally:(fun () ->
      Compile_plan.disable_store ();
      Compile_plan.clear_caches ();
      rm_rf dir)
    (fun () -> f dir)

let compile_ising ?(options = Compiler.default_options) ?(n = 5) () =
  let ryd = rydberg_for n in
  Compiler.compile ~options ~aais:ryd.Rydberg.aais
    ~target:(static_target "ising-chain" n)
    ~t_tar:1.0 ()

(* the only entry file in a fresh store dir *)
let sole_entry dir =
  match Sys.readdir dir with
  | [| f |] -> Filename.concat dir f
  | files -> Alcotest.failf "expected one store entry, found %d" (Array.length files)

let test_cold_process_store_hit () =
  with_store @@ fun _dir ->
  let r1 = compile_ising () in
  Alcotest.(check bool) "store enabled" true r1.Compiler.plan.Compiler.store_enabled;
  Alcotest.(check bool) "first compile misses" false
    r1.Compiler.plan.Compiler.store_hit;
  (* a fresh process = empty in-memory caches, same store *)
  Compile_plan.clear_caches ();
  let r2 = compile_ising () in
  Alcotest.(check bool) "second cold compile hits the store" true
    r2.Compiler.plan.Compiler.store_hit;
  check_bits "t_sim" r1.Compiler.t_sim r2.Compiler.t_sim;
  check_bits_arr "env" r1.Compiler.env r2.Compiler.env;
  (* stored plans skip the front-end build *)
  check_bits "no rebuild cost" 0.0 r2.Compiler.plan.Compiler.build_seconds;
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s ->
      Alcotest.(check int) "one write" 1 s.PS.writes;
      Alcotest.(check int) "one hit" 1 s.PS.hits;
      Alcotest.(check int) "one miss" 1 s.PS.misses);
  (* within one process the LRU wins; the store is not re-read *)
  let r3 = compile_ising () in
  Alcotest.(check bool) "warm compile is an LRU hit" true
    r3.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "not a store hit" false r3.Compiler.plan.Compiler.store_hit

let test_corrupt_store_rebuilds () =
  with_store @@ fun dir ->
  let r1 = compile_ising () in
  let entry = sole_entry dir in
  let damage bytes msg =
    Compile_plan.clear_caches ();
    write_file entry bytes;
    let r = compile_ising () in
    Alcotest.(check bool) (msg ^ ": rebuilt, not crashed") false
      r.Compiler.plan.Compiler.store_hit;
    check_bits (msg ^ ": t_sim identical") r1.Compiler.t_sim r.Compiler.t_sim;
    check_bits_arr (msg ^ ": env identical") r1.Compiler.env r.Compiler.env
  in
  let whole = read_file entry in
  damage (String.sub whole 0 (String.length whole / 3)) "truncated";
  damage "not a store entry at all" "garbage";
  (let b = Bytes.of_string (read_file entry) in
   (* the rebuild above re-wrote the entry; flip a payload byte *)
   let last = Bytes.length b - 1 in
   Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
   damage (Bytes.to_string b) "flipped checksum");
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s ->
      Alcotest.(check int) "every damage counted" 3 s.PS.corrupt;
      (* each rebuild repaired the entry *)
      Alcotest.(check int) "repair writes" 4 s.PS.writes);
  (* the final repair is loadable again *)
  Compile_plan.clear_caches ();
  let r = compile_ising () in
  Alcotest.(check bool) "repaired entry hits" true
    r.Compiler.plan.Compiler.store_hit

(* An entry whose bytes are all valid (magic, version, key, checksum)
   and that decodes to a plan, but a plan breaking a cross-stage
   invariant: only the lint gate on store loads can refuse it. *)
let test_lint_failing_entry_rebuilds () =
  with_store @@ fun dir ->
  let r1 = compile_ising () in
  let ryd = rydberg_for 5 in
  let plan, _ =
    Compile_plan.obtain ~options:Compiler.default_options
      ~aais:ryd.Rydberg.aais ~target:(static_target "ising-chain" 5)
  in
  let d = plan.Compile_plan.device in
  let bad =
    {
      plan with
      Compile_plan.device =
        { d with Compile_plan.prepared = List.tl d.Compile_plan.prepared };
    }
  in
  Alcotest.(check bool) "planted plan fails the lint" true
    (Qturbo_analysis.Diagnostic.has_errors (Compile_plan.lint bad));
  let version = Option.get (Compile_plan.store_version ()) in
  Alcotest.(check bool) "planted" true
    (PS.save (PS.open_store ~version ~dir) ~key:bad.Compile_plan.key
       ~payload:(Marshal.to_string bad [ Marshal.Closures ]));
  Compile_plan.clear_caches ();
  let r2 = compile_ising () in
  Alcotest.(check bool) "rebuilt, not served" false
    r2.Compiler.plan.Compiler.store_hit;
  check_bits "t_sim identical" r1.Compiler.t_sim r2.Compiler.t_sim;
  check_bits_arr "env identical" r1.Compiler.env r2.Compiler.env;
  match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s -> Alcotest.(check int) "counted as corrupt" 1 s.PS.corrupt

let test_version_mismatch_rebuilds () =
  with_store @@ fun dir ->
  let r1 = compile_ising () in
  let entry = sole_entry dir in
  (* rewrite the entry's version line; the payload checksum still holds,
     so only the version gate can reject it *)
  (match String.split_on_char '\n' (read_file entry) with
  | magic :: _version :: rest ->
      write_file entry (String.concat "\n" (magic :: "stale/0" :: rest))
  | _ -> Alcotest.fail "unexpected entry layout");
  Compile_plan.clear_caches ();
  let r2 = compile_ising () in
  Alcotest.(check bool) "rebuilt" false r2.Compiler.plan.Compiler.store_hit;
  check_bits "identical" r1.Compiler.t_sim r2.Compiler.t_sim;
  match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s ->
      Alcotest.(check int) "counted as version mismatch" 1 s.PS.version_mismatch;
      Alcotest.(check int) "not as corruption" 0 s.PS.corrupt

let test_store_bitwise_identical_across_domains () =
  List.iter
    (fun domains ->
      let options = { Compiler.default_options with Compiler.domains } in
      Compile_plan.clear_caches ();
      Compile_plan.disable_store ();
      let off = compile_ising ~options () in
      Alcotest.(check bool)
        (Printf.sprintf "domains %d: store off" domains)
        false off.Compiler.plan.Compiler.store_enabled;
      with_store (fun _dir ->
          let cold = compile_ising ~options () in
          Compile_plan.clear_caches ();
          let stored = compile_ising ~options () in
          Alcotest.(check bool)
            (Printf.sprintf "domains %d: stored run hits" domains)
            true stored.Compiler.plan.Compiler.store_hit;
          List.iter
            (fun (label, (r : Compiler.result)) ->
              let msg =
                Printf.sprintf "domains %d: %s vs store-off" domains label
              in
              check_bits (msg ^ " t_sim") off.Compiler.t_sim r.Compiler.t_sim;
              check_bits_arr (msg ^ " env") off.Compiler.env r.Compiler.env;
              check_bits (msg ^ " error") off.Compiler.error_l1
                r.Compiler.error_l1)
            [ ("cold store", cold); ("store hit", stored) ]))
    [ 1; 4 ]

let () =
  Alcotest.run "store"
    [
      ( "plan_store",
        [
          Alcotest.test_case "save/load round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption suite" `Quick
            test_store_corruption_suite;
          Alcotest.test_case "reclassify corrupt" `Quick test_store_reclassify;
          Alcotest.test_case "unusable directory" `Quick
            test_store_unusable_dir;
        ] );
      ( "identity",
        [
          Alcotest.test_case "synthetic ELF images" `Quick
            test_identity_elf_cases;
          Alcotest.test_case "unreadable executable" `Quick
            test_identity_unreadable;
          Alcotest.test_case "store version form" `Quick
            test_store_version_form;
          Alcotest.test_case "identities separate stores" `Quick
            test_identity_separates_stores;
          QCheck_alcotest.to_alcotest prop_identity_total;
        ] );
      ( "compile_plan",
        [
          Alcotest.test_case "cold-process store hit" `Quick
            test_cold_process_store_hit;
          Alcotest.test_case "corrupt entries rebuild" `Quick
            test_corrupt_store_rebuilds;
          Alcotest.test_case "version mismatch rebuilds" `Quick
            test_version_mismatch_rebuilds;
          Alcotest.test_case "bitwise identical on/off, domains 1 and 4"
            `Quick test_store_bitwise_identical_across_domains;
          Alcotest.test_case "lint-failing entry rebuilds" `Quick
            test_lint_failing_entry_rebuilds;
        ] );
    ]
