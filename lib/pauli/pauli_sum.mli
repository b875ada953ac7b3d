(** Real-weighted sums of Pauli strings — the Hamiltonian representation.

    All Hamiltonians in the benchmark suite (paper Table 2) have real
    coefficients, so the coefficient field is [float].  Terms are kept in
    canonical {!Pauli_string.compare} order; zero coefficients are pruned
    eagerly so structural equality is semantic equality.

    Representation: parallel sorted arrays of keys and coefficients.
    With [n] terms, {!coeff} is an O(log n) binary search; {!add},
    {!sub}, {!scale} and {!drop_identity} are O(n); {!add_term} copies
    the arrays, so it is O(n) too — build large sums in bulk with
    {!of_list}, which is O(n) on input already in canonical order and
    O(n log n) otherwise. *)

type t

val zero : t

val of_list : (Pauli_string.t * float) list -> t
(** Duplicate strings are summed.  The result is bitwise the fold of
    {!add_term} over the list from {!zero}: a string's contributions are
    added in list order, zero contributions are skipped and a string
    whose running total reaches zero is dropped. *)

val term : float -> Pauli_string.t -> t

val add : t -> t -> t
(** Bitwise the fold of {!add_term} over the second sum's terms. *)

val sub : t -> t -> t

val scale : float -> t -> t
(** Products that underflow to zero are pruned. *)

val add_term : t -> Pauli_string.t -> float -> t
(** Adds one contribution; O(n), so prefer {!of_list} in loops. *)

val coeff : t -> Pauli_string.t -> float
(** Zero for absent terms. *)

val terms : t -> (Pauli_string.t * float) list
(** Canonical (sorted) order; coefficients are nonzero. *)

val term_count : t -> int

val n_qubits : t -> int
(** [1 + max touched site] ([0] for the zero sum and for pure-identity
    sums the identity contributes site [-1]). *)

val drop_identity : t -> t
(** Remove the identity-string term (a global energy shift is irrelevant
    to compilation). *)

val mul : t -> t -> t * bool
(** Operator product.  The boolean is [true] when every cross-phase was
    real (±1); imaginary phases fold a [0.] coefficient and flag [false] —
    callers that need complex algebra should not use this type.  Used only
    in tests/examples (e.g. verifying the PXP projector identity). *)

val norm1 : t -> float
(** Sum of absolute coefficients, [‖·‖₁] over the coefficient vector. *)

val equal : ?tol:float -> t -> t -> bool

val support : t -> Pauli_string.t list

val pp : Format.formatter -> t -> unit
