(** The F₂-linear layout family.

    A layout whose every extent is a power of two and whose every piece
    is a bit-linear bijection (strided [RegP] permutations, XOR
    swizzles, [reverse], Morton order) acts on the {e bits} of the flat
    index: [apply g] is an affine map [x -> Mx lxor c] over GF(2).
    This module compiles such layouts into that explicit form, so bank
    conflicts and coalescing become rank computations (the test suite's
    closed-form oracle) and layout composition becomes matrix
    multiplication.

    Compilation is exact, not heuristic: piece matrices are built
    analytically from the piece's published definition (strides for
    [RegP], the [i*cols + (j lxor ((i >> shift) land mask))] form for
    the swizzle family, bit complement for [reverse]) or by basis
    probing verified over the piece's whole index domain (Morton); any
    piece outside the family yields [None]. *)

type t = private { bits : int; mat : Bitmat.t; c : int }
(** [apply] is [fun x -> Bitmat.apply mat x lxor c]; [mat] is square
    [bits x bits] and [c < 2^bits]. *)

val bits : t -> int
val mat : t -> Bitmat.t
val const : t -> int

val make : bits:int -> mat:Bitmat.t -> c:int -> t
(** Raises [Invalid_argument] on shape mismatch. *)

val identity : int -> t

val apply : t -> int -> int

val compose : t -> t -> t
(** [compose f g] is [f] after [g] (so [apply (compose f g) x = apply f
    (apply g x)]). *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash over the width, the constant and every column, consistent
    with {!equal}: the key of the tuner's map tables. *)

val invertible : t -> bool
(** Full rank — for a layout matrix this is exactly bijectivity. *)

val inverse : t -> t option

val of_piece : Lego_layout.Piece.t -> t option
(** The piece's flat-to-flat map as an affine form, when the piece is in
    the linear family (all extents powers of two and the piece one of:
    any [RegP]; [swizzle]; [swizzlex_m<mask>_s<shift>]; [reverse];
    [morton]). *)

val of_stage : Lego_layout.Order_by.t -> t option
(** One [Order_by] stage's flat-to-flat map: the block-diagonal assembly
    of its piece matrices ({!of_piece}) on the stage's suffix-product bit
    fields.  [None] when any piece has no linear form.  This is the one
    stage compiler; {!of_layout} composes it over a chain, and the
    tuner's scorer composes a candidate's outer stage with its memoized
    chain tail's map. *)

val of_layout : Lego_layout.Group_by.t -> t option
(** The whole layout's affine form: {!of_stage} composed over the chain
    in application order, so [of_layout] of a chain [o :: rest] is
    [compose s t] for [Some s = of_stage o] and [Some t] the map of
    [rest] (the empty chain is the identity).  [None] exactly when some
    stage has no linear form, or, for the empty chain, when the element
    count is not a power of two. *)

val pp : Format.formatter -> t -> unit
