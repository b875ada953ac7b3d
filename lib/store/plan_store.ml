let magic = "qturbo-plan-store 1"

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  version_mismatch : int;
  writes : int;
  write_errors : int;
}

type t = {
  dir : string;
  version : string;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable version_mismatch : int;
  mutable writes : int;
  mutable write_errors : int;
}

let sanitize_version v =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) v

let open_store ~version ~dir =
  {
    dir;
    version = sanitize_version version;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    corrupt = 0;
    version_mismatch = 0;
    writes = 0;
    write_errors = 0;
  }

let dir t = t.dir
let version t = t.version

let entry_path t ~key =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".plan")

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- load ------------------------------------------------------------ *)

type verdict = Valid of string | Absent | Corrupt | Version_mismatch

(* Entry layout: four header lines (magic, version tag, "<key_len>
   <payload_len>", payload MD5 hex) followed by the raw key bytes and
   the raw payload bytes.  The key is stored in full — file names are
   only a digest, so an (improbable) digest collision must read as a
   miss, not as somebody else's plan. *)
let validate t ~key text =
  let len = String.length text in
  let line_end from =
    match String.index_from_opt text from '\n' with
    | Some i -> i
    | None -> raise Exit
  in
  match
    let e1 = line_end 0 in
    let e2 = line_end (e1 + 1) in
    let e3 = line_end (e2 + 1) in
    let e4 = line_end (e3 + 1) in
    let line a b = String.sub text a (b - a) in
    let l_magic = line 0 e1 in
    let l_version = line (e1 + 1) e2 in
    let l_sizes = line (e2 + 1) e3 in
    let l_md5 = line (e3 + 1) e4 in
    if l_magic <> magic then Corrupt
    else
      let key_len, payload_len =
        match String.split_on_char ' ' l_sizes with
        | [ a; b ] -> (int_of_string a, int_of_string b)
        | _ -> raise Exit
      in
      if key_len < 0 || payload_len < 0 then Corrupt
      else
        let body = e4 + 1 in
        if len - body <> key_len + payload_len then Corrupt
        else if String.sub text body key_len <> key then Corrupt
        else if l_version <> t.version then Version_mismatch
        else
          let payload = String.sub text (body + key_len) payload_len in
          if Digest.to_hex (Digest.string payload) <> l_md5 then Corrupt
          else Valid payload
  with
  | v -> v
  | exception (Exit | Failure _ | Invalid_argument _) -> Corrupt

let load t ~key =
  let verdict =
    match
      In_channel.with_open_bin (entry_path t ~key) In_channel.input_all
    with
    | text -> validate t ~key text
    | exception Sys_error _ -> Absent
  in
  locked t (fun () ->
      match verdict with
      | Valid payload ->
          t.hits <- t.hits + 1;
          Some payload
      | Absent ->
          t.misses <- t.misses + 1;
          None
      | Corrupt ->
          t.corrupt <- t.corrupt + 1;
          None
      | Version_mismatch ->
          t.version_mismatch <- t.version_mismatch + 1;
          None)

(* ---- save ------------------------------------------------------------ *)

let rec ensure_dir path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    ensure_dir (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save t ~key ~payload =
  let final = entry_path t ~key in
  let tmp = Printf.sprintf "%s.tmp.%d" final (Unix.getpid ()) in
  let ok =
    try
      ensure_dir t.dir;
      Out_channel.with_open_bin tmp (fun oc ->
          Printf.fprintf oc "%s\n%s\n%d %d\n%s\n" magic t.version
            (String.length key) (String.length payload)
            (Digest.to_hex (Digest.string payload));
          Out_channel.output_string oc key;
          Out_channel.output_string oc payload);
      Unix.rename tmp final;
      true
    with Sys_error _ | Unix.Unix_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      false
  in
  locked t (fun () ->
      if ok then t.writes <- t.writes + 1
      else t.write_errors <- t.write_errors + 1);
  ok

(* ---- telemetry ------------------------------------------------------- *)

let reclassify_corrupt t =
  locked t (fun () ->
      if t.hits > 0 then begin
        t.hits <- t.hits - 1;
        t.corrupt <- t.corrupt + 1
      end)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        corrupt = t.corrupt;
        version_mismatch = t.version_mismatch;
        writes = t.writes;
        write_errors = t.write_errors;
      })

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.corrupt <- 0;
      t.version_mismatch <- 0;
      t.writes <- 0;
      t.write_errors <- 0)

(* ---- binary identity ------------------------------------------------- *)

(* ELF64 little-endian offsets (System V gABI): the file header holds
   e_phoff at 0x20, e_phentsize at 0x36 and e_phnum at 0x38; a program
   header holds p_type at +0, p_offset at +8, p_filesz at +32 and
   p_align at +48.  A note is namesz, descsz and type (4 bytes each),
   then the name and the descriptor, each padded to the note
   alignment. *)
let elf64_ehsize = 64
let elf64_phentsize = 56
let pt_note = 4
let nt_gnu_build_id = 3

exception Malformed

let u16 s o = String.get_uint16_le s o
let u32 s o = Int32.to_int (String.get_int32_le s o) land 0xffff_ffff

let u64 s o =
  match Int64.unsigned_to_int (String.get_int64_le s o) with
  | Some v -> v
  | None -> raise Malformed

let align_up x a = (x + a - 1) land lnot (a - 1)

(* The NT_GNU_BUILD_ID descriptor among one PT_NOTE segment's notes.
   Every step advances by at least the 12-byte note header, so the walk
   terminates on any bytes. *)
let build_id_in_notes notes ~align =
  let len = String.length notes in
  let rec walk off =
    if off + 12 > len then None
    else
      let namesz = u32 notes off
      and descsz = u32 notes (off + 4)
      and kind = u32 notes (off + 8) in
      let desc = align_up (off + 12 + namesz) align in
      if desc + descsz > len then raise Malformed
      else if
        kind = nt_gnu_build_id && namesz = 4 && descsz > 0
        && String.sub notes (off + 12) 4 = "GNU\000"
      then Some (String.sub notes desc descsz)
      else walk (align_up (desc + descsz) align)
  in
  walk 0

(* Reads only the file header, the program header table and the PT_NOTE
   segments: a few hundred bytes of an ordinary executable. *)
let elf_build_id path =
  try
    In_channel.with_open_bin path (fun ic ->
        let size =
          match Int64.unsigned_to_int (In_channel.length ic) with
          | Some n -> n
          | None -> raise Malformed
        in
        let read ~off ~len =
          if off < 0 || len < 0 || off > size - len then raise Malformed;
          In_channel.seek ic (Int64.of_int off);
          match In_channel.really_input_string ic len with
          | Some s -> s
          | None -> raise Malformed
        in
        let eh = read ~off:0 ~len:elf64_ehsize in
        (* magic, ELFCLASS64, ELFDATA2LSB *)
        if String.sub eh 0 4 <> "\x7fELF" || eh.[4] <> '\002' || eh.[5] <> '\001'
        then raise Malformed;
        let phoff = u64 eh 0x20
        and phentsize = u16 eh 0x36
        and phnum = u16 eh 0x38 in
        if phentsize < elf64_phentsize then raise Malformed;
        let table = read ~off:phoff ~len:(phnum * phentsize) in
        let rec scan i =
          if i = phnum then None
          else
            let ph = i * phentsize in
            let found =
              if u32 table ph <> pt_note then None
              else
                let notes =
                  read ~off:(u64 table (ph + 8)) ~len:(u64 table (ph + 32))
                in
                let align = if u64 table (ph + 48) = 8 then 8 else 4 in
                build_id_in_notes notes ~align
            in
            match found with Some _ -> found | None -> scan (i + 1)
        in
        scan 0)
  with Malformed | Sys_error _ -> None

let hex bytes =
  let b = Buffer.create (2 * String.length bytes) in
  String.iter (fun c -> Printf.bprintf b "%02x" (Char.code c)) bytes;
  Buffer.contents b

let binary_identity path =
  match elf_build_id path with
  | Some id -> Some ("build-id:" ^ hex id)
  | None -> (
      match Digest.file path with
      | d -> Some ("md5:" ^ Digest.to_hex d)
      | exception Sys_error _ -> None)
