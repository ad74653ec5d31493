(** A library of general (non-strided) bijections packaged as [GenP]
    pieces.

    These are the layouts the paper singles out as inexpressible in the
    CuTe/Graphene stride algebra (section 3.3 and section 8): the
    anti-diagonal order of figure 8, Z-Morton order, Hilbert order, XOR
    swizzles, cyclic diagonal storage, and table-driven run-time
    permutations.  Every bijection is written against {!Domain.S}, so the
    same definition evaluates on concrete indices and generates symbolic
    index expressions. *)

val antidiag : int -> Piece.t
(** [antidiag n] lays an [n x n] logical space out in the order elements
    appear on the [2n - 1] anti-diagonals, first diagonal = [(0,0)]
    (figure 8 of the paper; used to remove the NW benchmark's shared-memory
    bank conflicts). *)

val reverse : Shape.t -> Piece.t
(** Row-major order of the index with every component complemented
    ([i_k -> n_k - 1 - i_k]); the paper's figure 4 uses the 2-D case for
    its innermost tile. *)

val morton : d:int -> bits:int -> Piece.t
(** [morton ~d ~bits] is d-dimensional Z-Morton order on a
    [2^bits x ... x 2^bits] space: bit [b] of dimension [t] lands at
    position [b*d + (d-1-t)] of the flat offset. *)

val hilbert : bits:int -> Piece.t
(** 2-D Hilbert-curve order on a [2^bits x 2^bits] space. *)

val xor_swizzle : rows:int -> cols:int -> Piece.t
(** [xor_swizzle ~rows ~cols] (with [cols] a power of two) stores logical
    [(i, j)] at [i*cols + (j lxor (i mod cols))] — the classic
    shared-memory bank-conflict swizzle. *)

val xor_swizzle_masked :
  rows:int -> cols:int -> mask:int -> shift:int -> Piece.t
(** [xor_swizzle_masked ~rows ~cols ~mask ~shift] (with [cols] a power of
    two and [0 <= mask < cols]) stores logical [(i, j)] at
    [i*cols + (j lxor (((i lsr shift)) land mask))] — the parameterized
    swizzle family the autotuner searches over.  [mask = cols-1, shift =
    0] recovers {!xor_swizzle}; [mask = 0] is plain row-major.  The piece
    is named [swizzlex_m<mask>_s<shift>] so distinct parameters compare
    unequal and the name round-trips through {!lookup}. *)

val cyclic_diag : int -> Piece.t
(** [cyclic_diag n] stores logical [(i, j)] at [((j - i) mod n) * n + i]:
    diagonal storage for an [n x n] matrix. *)

val of_table : name:string -> dims:Shape.t -> (int list -> int) -> Piece.t
(** [of_table ~name ~dims f] tabulates the bijection [f] over the whole
    (small) index space and packages it as a [GenP].  In symbolic domains
    the lookup becomes a chain of selects, supporting the paper's
    "run-time permutations" remark.  Raises [Invalid_argument] if [f] is
    not a bijection onto [0 .. numel dims - 1]. *)

val parse_swizzlex : string -> (int * int) option
(** [parse_swizzlex "swizzlex_m<mask>_s<shift>"] recovers [(mask,
    shift)] from the canonical name {!xor_swizzle_masked} assigns.  Only
    the exact decimal spelling [Printf "%d"] produces round-trips:
    hex/octal/underscore/signed/leading-zero forms return [None] (they
    would alias a canonical name under a different string, breaking
    name-keyed piece identity). *)

val lookup : string -> Shape.t -> Piece.t option
(** Registry used by the surface-syntax elaborator: [lookup name dims]
    returns the gallery piece called [name] instantiated at [dims], if
    any. *)

val names : unit -> string list
(** Names understood by {!lookup}. *)
