(** Multi-qubit Pauli strings, stored sparsely (identity sites omitted).

    A Pauli string such as [Z₁Z₂] is the row key of the compiler's
    equation systems ("Hamiltonian terms" layer of paper Fig. 2).

    Representation: an [int array] of the non-identity sites in ascending
    order, each packed as [site * 4 + op] with [op] 1, 2, 3 for X, Y, Z.
    [compare], [equal], [hash] and [mul] are linear in the weights;
    [op_at] is a binary search and [commutes] one per site of its first
    argument.  [of_list] sorts its input, O(w log w); [two] with two
    non-identity operators skips the sort. *)

type t

val identity : t

val of_list : (int * Pauli.op) list -> t
(** Builds from [(site, op)] pairs; [I] entries are dropped; duplicate
    sites raise [Invalid_argument]; negative sites raise
    [Invalid_argument]. *)

val single : int -> Pauli.op -> t
(** [single i op] is the one-site string [op_i]. *)

val two : int -> Pauli.op -> int -> Pauli.op -> t
(** [two i a j b] is [a_i · b_j]; requires [i <> j]. *)

val to_list : t -> (int * Pauli.op) list
(** Ascending site order; never contains [I]. *)

val op_at : t -> int -> Pauli.op
(** [I] for unlisted sites. *)

val weight : t -> int
(** Number of non-identity sites. *)

val support : t -> int list
(** Sites carrying a non-identity operator, ascending. *)

val max_site : t -> int
(** Largest touched site; [-1] for the identity string. *)

val is_identity : t -> bool

val mul : t -> t -> Pauli.phase * t
(** Operator product with accumulated phase. *)

val commutes : t -> t -> bool
(** Strings commute iff they anticommute on an even number of sites. *)

val compare : t -> t -> int
(** Lexicographic over the [(site, op)] pairs of {!to_list}, sites
    first, then [I < X < Y < Z]; a proper prefix sorts first, so the
    identity string is the least. *)

val equal : t -> t -> bool

val hash : t -> int
(** [fold (fun acc (site, op) -> acc * 1_000_003 + site * 4 + op) 17]
    over {!to_list}, with [op] numbered as above; consistent with
    {!equal}. *)

val of_string : string -> t
(** Parse a dense spelling like ["IZZ"] (site 0 leftmost).  Raises
    [Invalid_argument] on other characters. *)

val to_string : ?n:int -> t -> string
(** Dense spelling padded to [n] sites (default: [max_site + 1]). *)

val pp : Format.formatter -> t -> unit
(** Compact spelling like ["Z1Z2"] (["I"] for the identity). *)
