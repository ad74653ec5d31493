(** Dense bit matrices over GF(2).

    A matrix is stored column-wise, one [int] bitmask per column (bit
    [i] of column [j] is entry [(i, j)]), so a matrix-vector product is
    an xor-fold over the set bits of the input — the representation the
    F₂ layout engine runs on.  Row and column
    counts are bounded by the OCaml int width ([Sys.int_size - 1]),
    far beyond any layout this repo addresses (offsets are < 2^40). *)

type t

val rows : t -> int
val cols : t -> int

val zero : rows:int -> cols:int -> t
val identity : int -> t

val of_cols : rows:int -> int list -> t
(** Columns as bitmasks, leftmost first.  Raises [Invalid_argument] when
    a mask has bits at or above [rows]. *)

val of_fun : rows:int -> cols:int -> (int -> int -> bool) -> t
(** [of_fun ~rows ~cols f] has entry [(i, j)] = [f i j]. *)

val col : t -> int -> int
(** Column [j] as a bitmask. *)

val get : t -> int -> int -> bool
(** Entry [(i, j)]. *)

val apply : t -> int -> int
(** Matrix-vector product: [apply m x] xors the columns of [m] selected
    by the set bits of [x].  Bits of [x] at or above [cols m] must be
    zero (checked). *)

val mul : t -> t -> t
(** Matrix product (composition: [apply (mul a b) x = apply a (apply b
    x)]).  Raises [Invalid_argument] on dimension mismatch. *)

val transpose : t -> t
val equal : t -> t -> bool

val rank : t -> int

val row_reduce : t -> t
(** Reduced row-echelon form (Gauss-Jordan over GF(2)); row space and
    rank are preserved, and the result is the canonical representative
    of the row space. *)

val inverse : t -> t option
(** Inverse of a square matrix, [None] when singular. *)

val kernel : t -> int list
(** Basis of the null space [{x | apply m x = 0}], as input-space
    bitmasks; empty iff the columns are independent. *)

val image : t -> int list
(** Canonical (reduced column-echelon) basis of the column space, in
    decreasing leading-bit order — equal lists iff equal subspaces, so
    the result doubles as a subspace key. *)

val pp : Format.formatter -> t -> unit
