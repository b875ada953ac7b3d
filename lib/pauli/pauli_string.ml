(* Packed representation: the non-identity sites in ascending order, each
   entry [site * 4 + code] with [code] 1, 2, 3 for X, Y, Z.  Because a code
   is below 4, comparing entries compares sites first and operators
   second, so [compare] below is the lexicographic (site, op) order. *)
type t = int array

let code = function Pauli.I -> 0 | Pauli.X -> 1 | Pauli.Y -> 2 | Pauli.Z -> 3

let op_of_code = function
  | 1 -> Pauli.X
  | 2 -> Pauli.Y
  | 3 -> Pauli.Z
  | _ -> Pauli.I

let site e = e lsr 2
let op e = op_of_code (e land 3)
let pack i o = (i * 4) + code o
let identity = [||]

let of_list pairs =
  let entries =
    List.filter_map
      (fun (site, op) ->
        if site < 0 then invalid_arg "Pauli_string.of_list: negative site";
        match op with
        | Pauli.I -> None
        | Pauli.X | Pauli.Y | Pauli.Z -> Some (pack site op))
      pairs
    |> Array.of_list
  in
  Array.sort Int.compare entries;
  for k = 1 to Array.length entries - 1 do
    if site entries.(k) = site entries.(k - 1) then
      invalid_arg "Pauli_string.of_list: duplicate site"
  done;
  entries

let single i o = of_list [ (i, o) ]

(* the Rydberg Hamiltonian rebuild calls this once per atom pair *)
let two i a j b =
  if i = j then invalid_arg "Pauli_string.two: equal sites";
  match (a, b) with
  | (Pauli.X | Pauli.Y | Pauli.Z), (Pauli.X | Pauli.Y | Pauli.Z)
    when i >= 0 && j >= 0 ->
      if i < j then [| pack i a; pack j b |] else [| pack j b; pack i a |]
  | _ -> of_list [ (i, a); (j, b) ]

let to_list t = Array.to_list (Array.map (fun e -> (site e, op e)) t)

let op_at t i =
  let rec search lo hi =
    if lo >= hi then Pauli.I
    else
      let mid = (lo + hi) / 2 in
      let s = site t.(mid) in
      if s = i then op t.(mid)
      else if s < i then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t)

let weight t = Array.length t
let support t = Array.to_list (Array.map site t)

let max_site t =
  let n = Array.length t in
  if n = 0 then -1 else site t.(n - 1)

let is_identity t = Array.length t = 0

let mul a b =
  let phase = ref Pauli.P1 in
  let rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
        if site x < site y then x :: merge xs' ys
        else if site y < site x then y :: merge xs ys'
        else
          let p, o = Pauli.mul (op x) (op y) in
          phase := Pauli.phase_mul !phase p;
          let rest = merge xs' ys' in
          if o = Pauli.I then rest else pack (site x) o :: rest
  in
  let product = merge (Array.to_list a) (Array.to_list b) in
  (!phase, Array.of_list product)

let commutes a b =
  let anticommuting_sites =
    Array.fold_left
      (fun acc e ->
        if Pauli.commutes (op e) (op_at b (site e)) then acc else acc + 1)
      0 a
  in
  anticommuting_sites mod 2 = 0

let compare a b =
  let na = Array.length a and nb = Array.length b in
  let rec go k =
    if k = na then if k = nb then 0 else -1
    else if k = nb then 1
    else
      let c = Int.compare a.(k) b.(k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

let equal a b = compare a b = 0
let hash t = Array.fold_left (fun acc e -> (acc * 1_000_003) + e) 17 t

let of_string s =
  let pairs = ref [] in
  String.iteri
    (fun i c ->
      match Pauli.op_of_char c with
      | Some op -> pairs := (i, op) :: !pairs
      | None -> invalid_arg "Pauli_string.of_string: invalid character")
    s;
  of_list !pairs

(* Dense rendering, one character per site: filled with 'I' and then
   the (few) non-identity sites, so it costs O(len + weight) instead of
   a binary search per site.  Plan keys render every support term this
   way, which at n = 1000 is a megabyte of characters per lookup. *)
let to_string ?n t =
  let len = match n with Some n -> n | None -> max_site t + 1 in
  let b = Bytes.make len 'I' in
  Array.iter
    (fun e ->
      let s = site e in
      if s < len then Bytes.set b s (Pauli.op_to_string (op e)).[0])
    t;
  Bytes.unsafe_to_string b

let pp ppf t =
  if is_identity t then Format.fprintf ppf "I"
  else
    Array.iter
      (fun e -> Format.fprintf ppf "%s%d" (Pauli.op_to_string (op e)) (site e))
      t
