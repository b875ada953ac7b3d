(* Tests for qturbo.pauli: single-site algebra, Pauli strings, Pauli sums. *)

open Qturbo_pauli

let op = Alcotest.testable (fun ppf o -> Format.pp_print_string ppf (Pauli.op_to_string o)) Pauli.equal_op

let pstring =
  Alcotest.testable (fun ppf s -> Pauli_string.pp ppf s) Pauli_string.equal

(* ---- Pauli ---- *)

let test_mul_table () =
  let check a b expect_phase expect_op =
    let phase, o = Pauli.mul a b in
    Alcotest.(check bool) "phase" true (phase = expect_phase);
    Alcotest.check op "op" expect_op o
  in
  check Pauli.X Pauli.Y Pauli.Pi Pauli.Z;
  check Pauli.Y Pauli.X Pauli.Pmi Pauli.Z;
  check Pauli.Y Pauli.Z Pauli.Pi Pauli.X;
  check Pauli.Z Pauli.X Pauli.Pi Pauli.Y;
  check Pauli.X Pauli.X Pauli.P1 Pauli.I;
  check Pauli.I Pauli.Z Pauli.P1 Pauli.Z

let test_phase_mul () =
  Alcotest.(check bool) "i*i = -1" true (Pauli.phase_mul Pauli.Pi Pauli.Pi = Pauli.Pm1);
  Alcotest.(check bool) "i*-i = 1" true (Pauli.phase_mul Pauli.Pi Pauli.Pmi = Pauli.P1);
  Alcotest.(check bool) "-1*-1 = 1" true (Pauli.phase_mul Pauli.Pm1 Pauli.Pm1 = Pauli.P1)

let test_commutes () =
  Alcotest.(check bool) "X,I" true (Pauli.commutes Pauli.X Pauli.I);
  Alcotest.(check bool) "X,X" true (Pauli.commutes Pauli.X Pauli.X);
  Alcotest.(check bool) "X,Y" false (Pauli.commutes Pauli.X Pauli.Y);
  Alcotest.(check bool) "Z,Y" false (Pauli.commutes Pauli.Z Pauli.Y)

let test_op_of_char () =
  Alcotest.(check (option op)) "Z" (Some Pauli.Z) (Pauli.op_of_char 'Z');
  Alcotest.(check (option op)) "bad" None (Pauli.op_of_char 'q')

let test_matrices_unitary () =
  (* each Pauli matrix squares to the identity *)
  let mul2 a b =
    Array.init 4 (fun k ->
        let i = k / 2 and j = k mod 2 in
        Complex.add
          (Complex.mul a.((i * 2) + 0) b.(0 + j))
          (Complex.mul a.((i * 2) + 1) b.(2 + j)))
  in
  List.iter
    (fun o ->
      let m = Pauli.matrix o in
      let sq = mul2 m m in
      let id = Pauli.matrix Pauli.I in
      Array.iteri
        (fun k c ->
          if Complex.norm (Complex.sub c id.(k)) > 1e-12 then
            Alcotest.failf "%s^2 <> I" (Pauli.op_to_string o))
        sq)
    [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]

(* ---- Pauli_string ---- *)

let test_string_of_list_drops_identity () =
  let s = Pauli_string.of_list [ (0, Pauli.I); (3, Pauli.Z) ] in
  Alcotest.(check int) "weight" 1 (Pauli_string.weight s);
  Alcotest.check op "op at 3" Pauli.Z (Pauli_string.op_at s 3);
  Alcotest.check op "op at 0" Pauli.I (Pauli_string.op_at s 0)

let test_string_duplicate_site_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Pauli_string.of_list: duplicate site")
    (fun () -> ignore (Pauli_string.of_list [ (1, Pauli.X); (1, Pauli.Z) ]))

let test_string_negative_site_rejected () =
  Alcotest.check_raises "neg" (Invalid_argument "Pauli_string.of_list: negative site")
    (fun () -> ignore (Pauli_string.of_list [ (-1, Pauli.X) ]))

let test_string_mul_disjoint () =
  let a = Pauli_string.single 0 Pauli.Z in
  let b = Pauli_string.single 1 Pauli.Z in
  let phase, prod = Pauli_string.mul a b in
  Alcotest.(check bool) "no phase" true (phase = Pauli.P1);
  Alcotest.check pstring "ZZ" (Pauli_string.two 0 Pauli.Z 1 Pauli.Z) prod

let test_string_mul_same_site () =
  let a = Pauli_string.single 0 Pauli.X in
  let b = Pauli_string.single 0 Pauli.Y in
  let phase, prod = Pauli_string.mul a b in
  Alcotest.(check bool) "i phase" true (phase = Pauli.Pi);
  Alcotest.check pstring "Z" (Pauli_string.single 0 Pauli.Z) prod

let test_string_mul_self_inverse () =
  let s = Pauli_string.of_string "XYZX" in
  let phase, prod = Pauli_string.mul s s in
  Alcotest.(check bool) "identity" true (Pauli_string.is_identity prod);
  (* each of X,Y,Z squares with phase +1 *)
  Alcotest.(check bool) "no phase" true (phase = Pauli.P1)

let test_string_commutes () =
  let zz = Pauli_string.of_string "ZZ" in
  let xx = Pauli_string.of_string "XX" in
  let xi = Pauli_string.of_string "XI" in
  Alcotest.(check bool) "ZZ,XX commute (two anticommuting sites)" true
    (Pauli_string.commutes zz xx);
  Alcotest.(check bool) "ZZ,XI anticommute" false (Pauli_string.commutes zz xi)

let test_string_parse_print () =
  let s = Pauli_string.of_string "IZIX" in
  Alcotest.(check string) "to_string" "IZIX" (Pauli_string.to_string s);
  Alcotest.(check string) "padded" "IZIXII" (Pauli_string.to_string ~n:6 s);
  Alcotest.(check int) "max site" 3 (Pauli_string.max_site s);
  Alcotest.(check (list int)) "support" [ 1; 3 ] (Pauli_string.support s)

let test_string_parse_rejects () =
  Alcotest.check_raises "bad char"
    (Invalid_argument "Pauli_string.of_string: invalid character") (fun () ->
      ignore (Pauli_string.of_string "XQ"))

let test_string_compare_total_order () =
  let a = Pauli_string.of_string "X" in
  let b = Pauli_string.of_string "Z" in
  Alcotest.(check bool) "antisym" true
    (Pauli_string.compare a b = -Pauli_string.compare b a);
  Alcotest.(check int) "refl" 0 (Pauli_string.compare a a)

(* ---- Pauli_sum ---- *)

let test_sum_merge_terms () =
  let zz = Pauli_string.of_string "ZZ" in
  let h = Pauli_sum.of_list [ (zz, 1.0); (zz, 2.0) ] in
  Alcotest.(check int) "one term" 1 (Pauli_sum.term_count h);
  Alcotest.(check (float 1e-12)) "merged" 3.0 (Pauli_sum.coeff h zz)

let test_sum_zero_pruned () =
  let zz = Pauli_string.of_string "ZZ" in
  let h = Pauli_sum.of_list [ (zz, 1.0); (zz, -1.0) ] in
  Alcotest.(check int) "empty" 0 (Pauli_sum.term_count h)

let test_sum_add_sub_scale () =
  let x0 = Pauli_string.single 0 Pauli.X in
  let z0 = Pauli_string.single 0 Pauli.Z in
  let a = Pauli_sum.of_list [ (x0, 1.0); (z0, 2.0) ] in
  let b = Pauli_sum.of_list [ (x0, 0.5) ] in
  let c = Pauli_sum.sub (Pauli_sum.scale 2.0 a) b in
  Alcotest.(check (float 1e-12)) "x coeff" 1.5 (Pauli_sum.coeff c x0);
  Alcotest.(check (float 1e-12)) "z coeff" 4.0 (Pauli_sum.coeff c z0)

let test_sum_norm1 () =
  let h =
    Pauli_sum.of_list
      [ (Pauli_string.single 0 Pauli.X, -3.0); (Pauli_string.single 1 Pauli.Z, 4.0) ]
  in
  Alcotest.(check (float 1e-12)) "norm1" 7.0 (Pauli_sum.norm1 h)

let test_sum_n_qubits () =
  let h = Pauli_sum.term 1.0 (Pauli_string.single 6 Pauli.Y) in
  Alcotest.(check int) "n" 7 (Pauli_sum.n_qubits h)

let test_sum_drop_identity () =
  let h =
    Pauli_sum.of_list
      [ (Pauli_string.identity, 5.0); (Pauli_string.single 0 Pauli.Z, 1.0) ]
  in
  Alcotest.(check int) "dropped" 1 (Pauli_sum.term_count (Pauli_sum.drop_identity h))

let test_sum_mul_real () =
  (* (X0)(X0) = I *)
  let x0 = Pauli_sum.term 2.0 (Pauli_string.single 0 Pauli.X) in
  let prod, all_real = Pauli_sum.mul x0 x0 in
  Alcotest.(check bool) "real" true all_real;
  Alcotest.(check (float 1e-12)) "identity coeff" 4.0
    (Pauli_sum.coeff prod Pauli_string.identity)

let test_sum_mul_imaginary_flagged () =
  let x0 = Pauli_sum.term 1.0 (Pauli_string.single 0 Pauli.X) in
  let y0 = Pauli_sum.term 1.0 (Pauli_string.single 0 Pauli.Y) in
  let _, all_real = Pauli_sum.mul x0 y0 in
  Alcotest.(check bool) "flagged" false all_real

let test_sum_equal_tol () =
  let z = Pauli_string.single 0 Pauli.Z in
  let a = Pauli_sum.term 1.0 z and b = Pauli_sum.term 1.0000001 z in
  Alcotest.(check bool) "within tol" true (Pauli_sum.equal ~tol:1e-5 a b);
  Alcotest.(check bool) "strict" false (Pauli_sum.equal a b)

(* number-operator identities used by the models *)
let test_number_operator_expansion () =
  let n0 = Qturbo_models.Rydberg_ops.number 0 in
  Alcotest.(check (float 1e-12)) "identity part" 0.5
    (Pauli_sum.coeff n0 Pauli_string.identity);
  Alcotest.(check (float 1e-12)) "z part" (-0.5)
    (Pauli_sum.coeff n0 (Pauli_string.single 0 Pauli.Z));
  (* n̂² = n̂ (projector): check via product *)
  let sq, real = Pauli_sum.mul n0 n0 in
  Alcotest.(check bool) "real" true real;
  Alcotest.(check bool) "projector" true (Pauli_sum.equal ~tol:1e-12 sq n0)

let test_number_number_expansion () =
  let nn = Qturbo_models.Rydberg_ops.number_number 0 1 in
  let direct, real =
    Pauli_sum.mul (Qturbo_models.Rydberg_ops.number 0) (Qturbo_models.Rydberg_ops.number 1)
  in
  Alcotest.(check bool) "real" true real;
  Alcotest.(check bool) "n0*n1 = nn" true (Pauli_sum.equal ~tol:1e-12 direct nn)

(* ---- qcheck properties ---- *)

let op_gen = QCheck.Gen.oneofl [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]

let string_gen =
  QCheck.Gen.(
    int_range 0 5 >>= fun n ->
    list_repeat n op_gen >>= fun ops ->
    return (Pauli_string.of_list (List.mapi (fun i o -> (i, o)) ops)))

let arb_string = QCheck.make ~print:(Format.asprintf "%a" Pauli_string.pp) string_gen

let prop_mul_weight_support =
  QCheck.Test.make ~name:"product support within union of supports" ~count:300
    (QCheck.pair arb_string arb_string) (fun (a, b) ->
      let _, p = Pauli_string.mul a b in
      List.for_all
        (fun site ->
          List.mem site (Pauli_string.support a) || List.mem site (Pauli_string.support b))
        (Pauli_string.support p))

let prop_mul_identity =
  QCheck.Test.make ~name:"identity is a two-sided unit" ~count:200 arb_string
    (fun s ->
      let p1, l = Pauli_string.mul Pauli_string.identity s in
      let p2, r = Pauli_string.mul s Pauli_string.identity in
      p1 = Pauli.P1 && p2 = Pauli.P1 && Pauli_string.equal l s && Pauli_string.equal r s)

let prop_commute_symmetric =
  QCheck.Test.make ~name:"commutation relation is symmetric" ~count:300
    (QCheck.pair arb_string arb_string) (fun (a, b) ->
      Pauli_string.commutes a b = Pauli_string.commutes b a)

let prop_self_square_identity =
  QCheck.Test.make ~name:"every string squares to the identity" ~count:300
    arb_string (fun s ->
      let _, p = Pauli_string.mul s s in
      Pauli_string.is_identity p)

let prop_sum_add_commutative =
  QCheck.Test.make ~name:"pauli-sum addition is commutative" ~count:200
    (QCheck.pair (QCheck.pair arb_string QCheck.(float_range (-3.) 3.))
       (QCheck.pair arb_string QCheck.(float_range (-3.) 3.)))
    (fun (((s1, c1)), ((s2, c2))) ->
      let a = Pauli_sum.term c1 s1 and b = Pauli_sum.term c2 s2 in
      Pauli_sum.equal ~tol:1e-12 (Pauli_sum.add a b) (Pauli_sum.add b a))

(* ---- equivalence with the map-based reference ----

   [Ref] keeps the representation the packed kernel replaced: a Pauli sum
   as a persistent map keyed by string, built by folding [add_term].  The
   packed kernel must agree with it bit for bit, order included. *)

module Ref = struct
  let op_int = function Pauli.I -> 0 | X -> 1 | Y -> 2 | Z -> 3

  let compare_string a b =
    List.compare
      (fun (s1, o1) (s2, o2) -> compare (s1, op_int o1) (s2, op_int o2))
      (Pauli_string.to_list a) (Pauli_string.to_list b)

  let hash s =
    List.fold_left
      (fun acc (site, o) -> (acc * 1_000_003) + (site * 4) + op_int o)
      17 (Pauli_string.to_list s)

  module Term_map = Map.Make (struct
    type t = Pauli_string.t

    let compare = compare_string
  end)

  let add_term t s c =
    if c = 0.0 then t
    else
      Term_map.update s
        (fun existing ->
          let total = match existing with Some x -> x +. c | None -> c in
          if total = 0.0 then None else Some total)
        t

  let of_list pairs =
    List.fold_left (fun acc (s, c) -> add_term acc s c) Term_map.empty pairs

  let fold_into t f pairs =
    List.fold_left (fun acc (s, c) -> add_term acc s (f c)) t pairs

  (* the pre-packing Rydberg builder, one [add_term] per contribution *)
  let rydberg ?cutoff_radius ~c6 ~positions ~omega ~phi ~delta () =
    let n = Array.length positions in
    let keep =
      match cutoff_radius with
      | None -> fun _ -> true
      | Some r -> fun d2 -> d2 <= r *. r
    in
    let h = ref Term_map.empty in
    let add c s = h := add_term !h s c in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let xi, yi = positions.(i) and xj, yj = positions.(j) in
        let d2 = ((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0) in
        if keep d2 then begin
          let a = c6 /. (4.0 *. (d2 ** 3.0)) in
          add a (Pauli_string.two i Pauli.Z j Pauli.Z);
          add (-.a) (Pauli_string.single i Pauli.Z);
          add (-.a) (Pauli_string.single j Pauli.Z)
        end
      done;
      add (delta.(i) /. 2.0) (Pauli_string.single i Pauli.Z);
      add (omega.(i) /. 2.0 *. cos phi.(i)) (Pauli_string.single i Pauli.X);
      add (-.(omega.(i) /. 2.0) *. sin phi.(i)) (Pauli_string.single i Pauli.Y)
    done;
    !h
end

let same_terms packed reference =
  let a = Pauli_sum.terms packed and b = Ref.Term_map.bindings reference in
  List.length a = List.length b
  && List.for_all2
       (fun (s1, c1) (s2, c2) ->
         Pauli_string.equal s1 s2
         && Int64.equal (Int64.bits_of_float c1) (Int64.bits_of_float c2))
       a b

let sign x = Int.compare x 0

(* strings over sites 0..5: few enough that random pairs collide *)
let site_string_gen =
  QCheck.Gen.(
    list_size (int_range 0 4) (pair (int_range 0 5) op_gen) >>= fun pairs ->
    let rec dedup seen = function
      | [] -> []
      | (site, o) :: rest ->
          if List.mem site seen then dedup seen rest
          else (site, o) :: dedup (site :: seen) rest
    in
    return (Pauli_string.of_list (dedup [] pairs)))

(* zeros, values that cancel each other exactly, values whose sum depends
   on the order of addition, and underflowing magnitudes *)
let coeff_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.0);
        (1, return (-0.0));
        (4, oneofl [ 1.0; -1.0; 0.1; -0.1; 0.2; -0.3; 1e-300; -1e-300 ]);
        (3, float_range (-2.0) 2.0);
      ])

let pairs_gen =
  QCheck.Gen.(list_size (int_range 0 40) (pair site_string_gen coeff_gen))

let print_pairs pairs =
  String.concat "; "
    (List.map
       (fun (s, c) -> Format.asprintf "%a:%h" Pauli_string.pp s c)
       pairs)

let arb_pairs = QCheck.make ~print:print_pairs pairs_gen

let prop_compare_lexicographic =
  QCheck.Test.make
    ~name:"compare is lexicographic (site, op) order; hash is the fold"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Format.asprintf "%a vs %a" Pauli_string.pp a Pauli_string.pp b)
       QCheck.Gen.(pair site_string_gen site_string_gen))
    (fun (a, b) ->
      sign (Pauli_string.compare a b) = sign (Ref.compare_string a b)
      && Pauli_string.hash a = Ref.hash a
      && Pauli_string.equal a b = (Ref.compare_string a b = 0))

let prop_mul_sitewise =
  QCheck.Test.make ~name:"mul and commutes agree with the site-by-site product"
    ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Format.asprintf "%a * %a" Pauli_string.pp a Pauli_string.pp b)
       QCheck.Gen.(pair site_string_gen site_string_gen))
    (fun (a, b) ->
      let sites = List.init 6 Fun.id in
      let per_site =
        List.map
          (fun i -> Pauli.mul (Pauli_string.op_at a i) (Pauli_string.op_at b i))
          sites
      in
      let phase =
        List.fold_left (fun acc (p, _) -> Pauli.phase_mul acc p) Pauli.P1 per_site
      in
      let product =
        Pauli_string.of_list (List.map2 (fun i (_, o) -> (i, o)) sites per_site)
      in
      let anticommuting =
        List.length
          (List.filter
             (fun i ->
               not
                 (Pauli.commutes (Pauli_string.op_at a i)
                    (Pauli_string.op_at b i)))
             sites)
      in
      let p, s = Pauli_string.mul a b in
      p = phase
      && Pauli_string.equal s product
      && Pauli_string.commutes a b = (anticommuting mod 2 = 0))

let prop_of_list_matches_fold =
  QCheck.Test.make ~name:"of_list is bitwise the add_term fold" ~count:500
    arb_pairs (fun pairs ->
      same_terms (Pauli_sum.of_list pairs) (Ref.of_list pairs)
      && same_terms
           (List.fold_left
              (fun acc (s, c) -> Pauli_sum.add_term acc s c)
              Pauli_sum.zero pairs)
           (Ref.of_list pairs))

let prop_arith_matches_fold =
  QCheck.Test.make ~name:"add, sub, scale and mul are bitwise the add_term fold"
    ~count:500
    (QCheck.triple arb_pairs arb_pairs
       (QCheck.make ~print:(Printf.sprintf "%h") coeff_gen))
    (fun (pa, pb, k) ->
      let a = Pauli_sum.of_list pa and b = Pauli_sum.of_list pb in
      let ra = Ref.of_list pa in
      let b_terms = Pauli_sum.terms b in
      let products =
        List.concat_map
          (fun (sa, ca) ->
            List.map
              (fun (sb, cb) ->
                let phase, s = Pauli_string.mul sa sb in
                let factor =
                  match phase with
                  | Pauli.P1 -> 1.0
                  | Pauli.Pm1 -> -1.0
                  | Pauli.Pi | Pauli.Pmi -> 0.0
                in
                (s, ca *. cb *. factor))
              b_terms)
          (Pauli_sum.terms a)
      in
      same_terms (Pauli_sum.add a b) (Ref.fold_into ra Fun.id b_terms)
      && same_terms (Pauli_sum.sub a b) (Ref.fold_into ra Float.neg b_terms)
      && same_terms (Pauli_sum.scale k a)
           (if k = 0.0 then Ref.Term_map.empty
            else
              Ref.fold_into Ref.Term_map.empty (fun c -> k *. c)
                (Pauli_sum.terms a))
      && same_terms (fst (Pauli_sum.mul a b)) (Ref.of_list products))

let layout_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    let per_atom g = array_repeat n g in
    per_atom (pair (float_range 0.0 40.0) (float_range 0.0 40.0))
    >>= fun positions ->
    per_atom (frequency [ (1, return 0.0); (3, float_range 0.0 2.5) ])
    >>= fun omega ->
    per_atom (float_range (-3.2) 3.2) >>= fun phi ->
    per_atom (frequency [ (1, return 0.0); (3, float_range (-20.0) 20.0) ])
    >>= fun delta ->
    oneofl [ None; Some 8.0; Some 15.0; Some 30.0 ] >>= fun cutoff_radius ->
    oneofl [ Qturbo_aais.Device.aquila_paper.Qturbo_aais.Device.c6; 0.0 ]
    >>= fun c6 -> return (positions, omega, phi, delta, cutoff_radius, c6))

let prop_rydberg_matches_fold =
  QCheck.Test.make
    ~name:"Rydberg.hamiltonian_of_pulse is bitwise the add_term loop" ~count:300
    (QCheck.make
       ~print:(fun (positions, _, _, _, r, c6) ->
         Printf.sprintf "n=%d cutoff=%s c6=%g" (Array.length positions)
           (match r with None -> "none" | Some r -> string_of_float r)
           c6)
       layout_gen)
    (fun (positions, omega, phi, delta, cutoff_radius, c6) ->
      let spec = { Qturbo_aais.Device.aquila_paper with Qturbo_aais.Device.c6 } in
      same_terms
        (Qturbo_aais.Rydberg.hamiltonian_of_pulse ?cutoff_radius ~spec ~positions
           ~omega ~phi ~delta ())
        (Ref.rydberg ?cutoff_radius ~c6 ~positions ~omega ~phi ~delta ()))

(* regression: a product that underflows to 0 is pruned, so [terms] keeps
   its nonzero-coefficient contract and [term_count] counts real terms *)
let test_scale_prunes_underflow () =
  let z0 = Pauli_string.single 0 Pauli.Z in
  let h = Pauli_sum.scale 1e-300 (Pauli_sum.term 1e-300 z0) in
  Alcotest.(check int) "no terms" 0 (Pauli_sum.term_count h);
  Alcotest.(check (list (float 0.0))) "no coefficients" []
    (List.map snd (Pauli_sum.terms h))

(* [to_string] fills the dense spelling directly; it must equal the
   per-site definition, padded or truncated to [n]. *)
let prop_to_string_per_site =
  let sparse =
    QCheck.Gen.(
      list_size (int_range 0 5) (pair (int_range 0 40) op_gen) >|= fun pairs ->
      Pauli_string.of_list
        (List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) pairs))
  in
  QCheck.Test.make ~name:"to_string = per-site spelling" ~count:500
    (QCheck.pair
       (QCheck.make ~print:(Format.asprintf "%a" Pauli_string.pp) sparse)
       QCheck.(int_range 0 45))
    (fun (s, pad) ->
      let per_site len =
        String.init len (fun i -> (Pauli.op_to_string (Pauli_string.op_at s i)).[0])
      in
      let n = Pauli_string.max_site s + 1 in
      String.equal (Pauli_string.to_string s) (per_site n)
      && String.equal (Pauli_string.to_string ~n:pad s) (per_site pad))

let () =
  Alcotest.run "pauli"
    [
      ( "pauli",
        [
          Alcotest.test_case "multiplication table" `Quick test_mul_table;
          Alcotest.test_case "phase multiplication" `Quick test_phase_mul;
          Alcotest.test_case "commutation" `Quick test_commutes;
          Alcotest.test_case "parsing" `Quick test_op_of_char;
          Alcotest.test_case "matrices square to I" `Quick test_matrices_unitary;
        ] );
      ( "pauli_string",
        [
          Alcotest.test_case "identity dropped" `Quick test_string_of_list_drops_identity;
          Alcotest.test_case "duplicate rejected" `Quick test_string_duplicate_site_rejected;
          Alcotest.test_case "negative rejected" `Quick test_string_negative_site_rejected;
          Alcotest.test_case "disjoint product" `Quick test_string_mul_disjoint;
          Alcotest.test_case "same-site product" `Quick test_string_mul_same_site;
          Alcotest.test_case "self inverse" `Quick test_string_mul_self_inverse;
          Alcotest.test_case "string commutation" `Quick test_string_commutes;
          Alcotest.test_case "parse print" `Quick test_string_parse_print;
          Alcotest.test_case "parse rejects" `Quick test_string_parse_rejects;
          Alcotest.test_case "total order" `Quick test_string_compare_total_order;
        ] );
      ( "pauli_sum",
        [
          Alcotest.test_case "merge" `Quick test_sum_merge_terms;
          Alcotest.test_case "zero pruned" `Quick test_sum_zero_pruned;
          Alcotest.test_case "arith" `Quick test_sum_add_sub_scale;
          Alcotest.test_case "norm1" `Quick test_sum_norm1;
          Alcotest.test_case "n_qubits" `Quick test_sum_n_qubits;
          Alcotest.test_case "drop identity" `Quick test_sum_drop_identity;
          Alcotest.test_case "real product" `Quick test_sum_mul_real;
          Alcotest.test_case "imaginary flag" `Quick test_sum_mul_imaginary_flagged;
          Alcotest.test_case "tolerant equality" `Quick test_sum_equal_tol;
          Alcotest.test_case "number operator" `Quick test_number_operator_expansion;
          Alcotest.test_case "number-number" `Quick test_number_number_expansion;
          Alcotest.test_case "scale prunes underflow" `Quick test_scale_prunes_underflow;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mul_weight_support;
            prop_mul_identity;
            prop_commute_symmetric;
            prop_self_square_identity;
            prop_sum_add_commutative;
            prop_compare_lexicographic;
            prop_mul_sitewise;
            prop_of_list_matches_fold;
            prop_arith_matches_fold;
            prop_rydberg_matches_fold;
          ] );
      ("render", [ QCheck_alcotest.to_alcotest prop_to_string_per_site ]);
    ]
