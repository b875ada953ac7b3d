(* Parallel arrays in [Pauli_string.compare] order: keys strictly
   ascending, every coefficient nonzero. *)
type t = { keys : Pauli_string.t array; coeffs : float array }

let zero = { keys = [||]; coeffs = [||] }
let term c s = if c = 0.0 then zero else { keys = [| s |]; coeffs = [| c |] }

(* An output buffer of at most [n] terms: [push] appends a term unless its
   coefficient is zero, [finish] trims the arrays to what was pushed.
   Callers push keys in ascending order. *)
type buffer = { out : t; mutable len : int }

let buffer n =
  let out =
    { keys = Array.make n Pauli_string.identity; coeffs = Array.make n 0.0 }
  in
  { out; len = 0 }

let push b s c =
  if c <> 0.0 then begin
    b.out.keys.(b.len) <- s;
    b.out.coeffs.(b.len) <- c;
    b.len <- b.len + 1
  end

let finish { out; len } =
  if len = Array.length out.keys then out
  else { keys = Array.sub out.keys 0 len; coeffs = Array.sub out.coeffs 0 len }

(* A run's total is the plain left-to-right float sum from [0.0].  That is
   exactly the [add_term] fold: [0.0 +. c = c] stands in for an absent or
   cancelled term, [x +. 0.0 = x] for a skipped zero contribution, and the
   running total never becomes [-0.0]; only the final zero is dropped. *)
let of_list pairs =
  let pairs = Array.of_list pairs in
  let n = Array.length pairs in
  let by_key (a, _) (b, _) = Pauli_string.compare a b in
  let rec sorted k =
    k >= n || (by_key pairs.(k - 1) pairs.(k) <= 0 && sorted (k + 1))
  in
  if not (sorted 1) then Array.stable_sort by_key pairs;
  let out = buffer n in
  let k = ref 0 in
  while !k < n do
    let s, _ = pairs.(!k) in
    let total = ref 0.0 in
    while !k < n && Pauli_string.equal (fst pairs.(!k)) s do
      total := !total +. snd pairs.(!k);
      incr k
    done;
    push out s !total
  done;
  finish out

(* Linear merge of [a] and [f]-mapped [b]. *)
let merge f a b =
  let na = Array.length a.keys and nb = Array.length b.keys in
  let out = buffer (na + nb) in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    let order =
      if !j = nb then -1
      else if !i = na then 1
      else Pauli_string.compare a.keys.(!i) b.keys.(!j)
    in
    if order < 0 then begin
      push out a.keys.(!i) a.coeffs.(!i);
      incr i
    end
    else if order > 0 then begin
      push out b.keys.(!j) (f b.coeffs.(!j));
      incr j
    end
    else begin
      push out a.keys.(!i) (a.coeffs.(!i) +. f b.coeffs.(!j));
      incr i;
      incr j
    end
  done;
  finish out

let add a b = merge Fun.id a b
let sub a b = merge Float.neg a b
let add_term t s c = add t (term c s)

let scale k t =
  if k = 0.0 then zero
  else
    (* products that underflow to zero are pruned like any other *)
    let out = buffer (Array.length t.keys) in
    Array.iteri (fun i s -> push out s (k *. t.coeffs.(i))) t.keys;
    finish out

let coeff t s =
  let rec search lo hi =
    if lo >= hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let c = Pauli_string.compare t.keys.(mid) s in
      if c = 0 then t.coeffs.(mid)
      else if c < 0 then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t.keys)

let terms t =
  List.init (Array.length t.keys) (fun k -> (t.keys.(k), t.coeffs.(k)))
let term_count t = Array.length t.keys

let n_qubits t =
  Array.fold_left
    (fun acc s -> Int.max acc (Pauli_string.max_site s + 1))
    0 t.keys

let drop_identity t =
  (* the identity string sorts first *)
  let n = Array.length t.keys in
  if n > 0 && Pauli_string.is_identity t.keys.(0) then
    {
      keys = Array.sub t.keys 1 (n - 1);
      coeffs = Array.sub t.coeffs 1 (n - 1);
    }
  else t

let mul a b =
  let all_real = ref true in
  let products = ref [] in
  Array.iteri
    (fun i sa ->
      Array.iteri
        (fun j sb ->
          let phase, s = Pauli_string.mul sa sb in
          let factor =
            match phase with
            | Pauli.P1 -> 1.0
            | Pauli.Pm1 -> -1.0
            | Pauli.Pi | Pauli.Pmi ->
                all_real := false;
                0.0
          in
          products := (s, a.coeffs.(i) *. b.coeffs.(j) *. factor) :: !products)
        b.keys)
    a.keys;
  (of_list (List.rev !products), !all_real)

let norm1 t = Array.fold_left (fun acc c -> acc +. Float.abs c) 0.0 t.coeffs

let equal ?(tol = 0.0) a b =
  let close x y = Float.abs (x -. y) <= tol in
  let covered x y =
    let rec go k =
      k = Array.length x.keys
      || (close x.coeffs.(k) (coeff y x.keys.(k)) && go (k + 1))
    in
    go 0
  in
  covered a b && covered b a

let support t = Array.to_list t.keys

let pp ppf t =
  if Array.length t.keys = 0 then Format.fprintf ppf "0"
  else
    Array.iteri
      (fun k s ->
        let c = t.coeffs.(k) in
        if k > 0 then Format.fprintf ppf (if c >= 0.0 then " + " else " ");
        Format.fprintf ppf "%g·%a" c Pauli_string.pp s)
      t.keys
