(** CuTe-style layout algebra over strided layouts (Cecka, {e CuTe Layout
    Representation and Algebra}; Colfax, {e Categorical Foundations for
    CuTe Layouts}).

    A {!t} is a flat strided layout: a shape [n1 x ... x nd] (repo
    convention — first mode outermost, last mode fastest, matching
    {!Shape.flatten}) together with one integer stride per mode.  It
    denotes the function

      [x  |->  sum_k  (unflatten shape x)_k * stride_k]

    on the domain [0 .. size - 1].  The four operators of the CuTe
    algebra — composition [A o B], complement [complement(A, M)], logical
    division [A / B] and logical product [A * B] — are partial: each has
    divisibility / disjointness / size side conditions.  These are
    closed facts about the integers of the operands' shape:stride pairs,
    so every operator checks them directly, in a fixed order, and either
    returns the layout or an {!error} naming the operator and the first
    failed condition.  The checks are exact because nothing wraps:
    {!make} admits only layouts whose every mode's extent * stride and
    whose cosize fit in an int, and every value an operator forms is
    bounded by one of those (DESIGN.md §13). *)

type t = private { shape : int list; stride : int list }

val make : shape:int list -> stride:int list -> t
(** Validates: non-empty equal-length lists, positive extents whose
    product fits in an int, non-negative strides, and an image that fits
    in an int (each mode's extent * stride, and the cosize
    [1 + sum_k (n_k - 1) * s_k]).  Raises [Invalid_argument] otherwise. *)

val shape : t -> int list
val stride : t -> int list

val size : t -> int
(** Product of the extents: the domain is [0 .. size - 1]. *)

val id : int -> t
(** [id n] is [(n):(1)] — the identity layout on [0 .. n - 1].
    [id 1] is the canonical trivial layout [(1):(0)]. *)

val row : int list -> t
(** Row-major strides for the given shape (the identity function). *)

val col : int list -> t
(** Column-major strides: the {e first} mode gets stride 1. *)

val concat : t -> t -> t
(** [concat a b] juxtaposes mode lists, [a] outermost.  The denoted
    function of the concatenation is [x -> a(outer digits) + b(inner
    digits)] — mode contributions are additive.  Validated as by
    {!make}. *)

val coalesce : t -> t
(** Drop extent-1 modes and merge adjacent modes whose strides chain
    ([outer.stride = inner.stride * inner.extent]); the denoted function
    is unchanged.  Normal form used by the equality tests. *)

val apply_int : t -> int -> int
(** The denoted function. *)

val equal : t -> t -> bool
(** Structural equality of shape and stride lists. *)

val equivalent : t -> t -> bool
(** Functional equality: same size and pointwise equal images (domains
    here are small; this is an exhaustive check for tests). *)

val is_bijection : t -> bool
(** Concretely: is the layout a bijection onto [0 .. size - 1]?  True
    iff the modes with extent > 1, sorted by stride, form a complete
    mixed-radix chain ([d_(1) = 1], [d_(i+1) = d_(i) * n_(i)]). *)

val pp : Format.formatter -> t -> unit
(** CuTe-style [(n1,...,nd):(s1,...,sd)]. *)

val to_string : t -> string

(** {1 Side conditions} *)

type error = {
  op : string;
      (** Operator whose application failed: ["o"], ["complement"],
          ["divide"], ["product"] or ["to_piece"]. *)
  cond : string;
      (** The violated side condition: ["left-divisibility"],
          ["disjointness"], ["coverage"], ["size"], ["injectivity"] or
          ["bijectivity"]. *)
  detail : string;  (** Human-readable instance of the condition. *)
}

val pp_error : Format.formatter -> error -> unit
(** [op: unproven side condition "cond": detail]. *)

(** {1 Operators}

    Every operator checks its side conditions in order and returns
    either the resulting layout or the first failed condition. *)

val compose : t -> t -> (t, error) result
(** [compose a b] is the strided layout of [a o b] (apply [b], then
    [a]).  Side conditions: [b]'s image must lie in [a]'s domain
    (["size"]: [cosize b <= size a]), and [b]'s strides and extents must
    peel through [a]'s modes by the left-divisibility discipline
    (["left-divisibility"]). *)

val complement : t -> int -> (t, error) result
(** [complement a m] is the layout [a*] covering exactly the offsets of
    [0 .. m - 1] that [a] misses, ordered ascending.  Side conditions:
    [m] positive (["coverage"]), strides positive (["injectivity"]),
    sorted modes pairwise disjoint by the divisibility chain
    (["disjointness"]), and [a]'s image contained in [0 .. m - 1] with
    the chain dividing [m] (["coverage"]).  [concat a* a]
    restricted-sorts into a bijection on [0 .. m - 1] — the property the
    QCheck suite asserts. *)

val tiler : t -> int -> (t, error) result
(** [tiler b m] is [concat (complement b m) b] — the bijection on
    [0 .. m - 1] that enumerates [b]'s tile fastest, then the complement
    (tile-grid) positions.  Equals [logical_product b (id (m / size b))]
    up to coalescing. *)

val logical_divide : t -> t -> (t, error) result
(** [logical_divide a b] is [a o (tiler b (size a))]: [a] re-expressed
    in the tile basis of [b] — inner modes walk one [b] tile through
    [a], outer modes walk the complement (the tile grid).  Adds the side
    condition [size b | size a] (["size"]), checked first. *)

val logical_product : t -> t -> (t, error) result
(** [logical_product a b] is
    [concat ((complement a (size a * cosize b)) o b) a], where [cosize b]
    is one past the largest image point of [b]: one copy of [a]
    in the inner modes, replicated across the image of [b] applied to
    [a]'s complement in the outer modes.  Adds the side condition that
    the codomain [size a * cosize b] fits in an int (["coverage"]),
    checked first. *)

val inverse : t -> t option
(** The strided layout of the inverse function, when [t] is a bijection
    ({!is_bijection}); [None] otherwise. *)

(** {1 Bridging to pieces} *)

val of_piece : Piece.t -> t option
(** The strided layout denoting the same flat function as a [RegP]
    piece; [None] for [GenP] (not strided in general). *)

val to_piece : t -> (Piece.t, error) result
(** Package a layout as a [RegP] piece.  Side condition: the sorted
    strides must chain exactly to [size] (["bijectivity"], op
    ["to_piece"]); on success the piece's [apply] agrees pointwise with
    {!apply_int}. *)

val compose_pieces : Piece.t -> Piece.t -> (Piece.t, error) result
(** Function composition [a o b] at the piece level (equal element
    counts — the ["size"] condition).  When both pieces are strided and
    the strided composition's side conditions hold, the result is again
    a [RegP]; otherwise it is a composite [GenP] whose
    {!Domain.S}-polymorphic bijection evaluates [b], reinterprets the
    flat offset in [a]'s logical space, and evaluates [a] — so the
    composite works in every backend (C / Triton / MLIR / symbolic),
    named [(a o b)] after the two pieces' printed forms. *)
