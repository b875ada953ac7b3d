open Qturbo_pauli

let check_n ~min name n =
  if n < min then
    invalid_arg (Printf.sprintf "Benchmarks.%s: need at least %d qubits" name min)

let sum_terms terms = Pauli_sum.of_list terms

let chain_pairs n = List.init (n - 1) (fun i -> (i, i + 1))
let cycle_pairs n = List.init n (fun i -> (i, (i + 1) mod n))

let zz_terms pairs coeff =
  List.map (fun (i, j) -> (Pauli_string.two i Pauli.Z j Pauli.Z, coeff)) pairs

let single_terms n op coeff =
  List.init n (fun i -> (Pauli_string.single i op, coeff))

(* [base + Σ k·o] over [ops] in one bulk build; bitwise equal to folding
   [Pauli_sum.add] over the scaled operators *)
let add_scaled base k ops =
  sum_terms
    (Pauli_sum.terms base
    @ List.concat_map (fun o -> Pauli_sum.terms (Pauli_sum.scale k o)) ops)

let ising_chain ?(j = 1.0) ?(h = 1.0) ~n () =
  check_n ~min:2 "ising_chain" n;
  Model.static ~name:"ising-chain" ~n
    (sum_terms (zz_terms (chain_pairs n) j @ single_terms n Pauli.X h))

let ising_cycle ?(j = 1.0) ?(h = 1.0) ~n () =
  check_n ~min:3 "ising_cycle" n;
  Model.static ~name:"ising-cycle" ~n
    (sum_terms (zz_terms (cycle_pairs n) j @ single_terms n Pauli.X h))

let kitaev ?(mu = 1.0) ?(t = 1.0) ?(h = 1.0) ~n () =
  check_n ~min:2 "kitaev" n;
  Model.static ~name:"kitaev" ~n
    (sum_terms
       (zz_terms (chain_pairs n) (mu /. 2.0)
       @ single_terms n Pauli.X (-.t)
       @ single_terms n Pauli.Z (-.h)))

let ising_cycle_plus ?(j = 1.0) ?(h = 1.0) ~n () =
  check_n ~min:5 "ising_cycle_plus" n;
  let nnn = List.init n (fun i -> (i, (i + 2) mod n)) in
  Model.static ~name:"ising-cycle+" ~n
    (sum_terms
       (zz_terms (cycle_pairs n) j
       @ zz_terms nnn (j /. 64.0)
       @ single_terms n Pauli.X h))

let heisenberg_chain ?(j = 1.0) ?(h = 1.0) ~n () =
  check_n ~min:2 "heisenberg_chain" n;
  let pair_terms =
    List.concat_map
      (fun (i, k) ->
        List.map
          (fun op -> (Pauli_string.two i op k op, j))
          [ Pauli.X; Pauli.Y; Pauli.Z ])
      (chain_pairs n)
  in
  Model.static ~name:"heis-chain" ~n
    (sum_terms (pair_terms @ single_terms n Pauli.X h))

let mis_chain ?(u = 1.0) ?(omega = 1.0) ?(alpha = 1.0) ~n () =
  check_n ~min:2 "mis_chain" n;
  let static_part =
    add_scaled
      (sum_terms (single_terms n Pauli.X (omega /. 2.0)))
      alpha
      (List.map (fun (i, k) -> Rydberg_ops.number_number i k) (chain_pairs n))
  in
  let at s =
    let detuning = (1.0 -. (2.0 *. s)) *. u in
    add_scaled static_part detuning (List.init n Rydberg_ops.number)
  in
  Model.driven ~name:"mis-chain" ~n at

let qaoa_chain ?(p = 2) ?(gamma = 1.0) ?(beta = 1.0) ~n () =
  check_n ~min:2 "qaoa_chain" n;
  if p < 1 then invalid_arg "Benchmarks.qaoa_chain: need at least one round";
  (* SimuQ-GenQS-style QAOA as an analog drive: 2p equal slots in
     s ∈ [0, 1) alternating between the MaxCut cost layer γ·ΣZᵢZᵢ₊₁ and
     the mixer layer β·ΣXᵢ.  Discretizing with [segments = 2p] (midpoint
     sampling) reproduces the layer sequence exactly. *)
  let cost = sum_terms (zz_terms (chain_pairs n) gamma) in
  let mixer = sum_terms (single_terms n Pauli.X beta) in
  let slots = 2 * p in
  let at s =
    let k =
      Int.min (slots - 1) (int_of_float (Float.of_int slots *. s))
    in
    if k mod 2 = 0 then cost else mixer
  in
  Model.driven ~name:"qaoa-chain" ~n at

let ising_grid ?(j = 1.0) ?(h = 1.0) ~rows ~cols () =
  if rows < 1 || cols < 1 then
    invalid_arg "Benchmarks.ising_grid: need at least a 1x1 lattice";
  let n = rows * cols in
  check_n ~min:2 "ising_grid" n;
  let site r c = (r * cols) + c in
  let bonds = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then bonds := (site r c, site r (c + 1)) :: !bonds;
      if r + 1 < rows then bonds := (site r c, site (r + 1) c) :: !bonds
    done
  done;
  Model.static ~name:"ising-grid" ~n
    (sum_terms (zz_terms (List.rev !bonds) j @ single_terms n Pauli.X h))

let pxp ?(j = 1.0) ?(h = 1.0) ~n () =
  check_n ~min:2 "pxp" n;
  let blockade =
    add_scaled Pauli_sum.zero j
      (List.map (fun (i, k) -> Rydberg_ops.number_number i k) (chain_pairs n))
  in
  Model.static ~name:"pxp" ~n
    (Pauli_sum.add blockade (sum_terms (single_terms n Pauli.X h)))

let all_static ~n =
  [
    ising_chain ~n ();
    ising_cycle ~n ();
    kitaev ~n ();
    ising_cycle_plus ~n ();
    heisenberg_chain ~n ();
    pxp ~n ();
  ]

let by_name ~name ~n =
  match name with
  | "ising-chain" -> ising_chain ~n ()
  | "ising-cycle" -> ising_cycle ~n ()
  | "kitaev" -> kitaev ~n ()
  | "ising-cycle+" -> ising_cycle_plus ~n ()
  | "heis-chain" -> heisenberg_chain ~n ()
  | "mis-chain" -> mis_chain ~n ()
  | "qaoa-chain" -> qaoa_chain ~n ()
  | "pxp" -> pxp ~n ()
  | "ising-grid" ->
      let side = int_of_float (Float.round (sqrt (float_of_int n))) in
      if side * side <> n then
        invalid_arg "Benchmarks.by_name: ising-grid needs a square qubit count";
      ising_grid ~rows:side ~cols:side ()
  | other -> invalid_arg ("Benchmarks.by_name: unknown model " ^ other)
