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
    divisibility / disjointness / size side conditions.  Rather than
    checking those conditions internally, every operator {e emits} them
    as {!obligation}s through a caller-supplied {!discharge} function, so
    the conditions can be proven symbolically (see
    {!Lego_symbolic.Discharge}, which routes each goal through the
    prover) or checked concretely ({!concrete}).  An operator application
    either returns the proven layout or an {!error} naming the operator
    and the failed condition.

    This module deliberately depends only on the layout core: obligations
    carry {!Domain.S}-polymorphic data ({!apply} on a symbolic domain),
    never prover types, keeping the dependency order
    [layout -> symbolic] intact. *)

type t = private { shape : int list; stride : int list }

val make : shape:int list -> stride:int list -> t
(** Validates: non-empty equal-length lists, positive extents,
    non-negative strides.  Raises [Invalid_argument] otherwise. *)

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
    digits)] — mode contributions are additive. *)

val coalesce : t -> t
(** Drop extent-1 modes and merge adjacent modes whose strides chain
    ([outer.stride = inner.stride * inner.extent]); the denoted function
    is unchanged.  Normal form used by the equality tests. *)

val apply : (module Domain.S with type t = 'a) -> t -> 'a -> 'a
(** The denoted function, generic in the index domain (symbolic
    evaluation of this is how image-bound obligations are proven). *)

val apply_int : t -> int -> int

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

(** {1 Side conditions as obligations} *)

type goal =
  | Divides of { divisor : int; value : int }
      (** [divisor] divides [value] (the stride-divisibility goals). *)
  | Le of { lhs : int; rhs : int }
  | Eq of { lhs : int; rhs : int }
  | Image_bounded of { layout : t; bound : int }
      (** [forall x in [0, size layout): 0 <= layout x < bound] — proven
          symbolically by evaluating {!apply} over an interval domain. *)

type error = {
  op : string;  (** Operator whose application failed ("o", "divide", ...). *)
  cond : string;
      (** The violated side condition: ["left-divisibility"],
          ["disjointness"], ["coverage"], ["size"], ["injectivity"] or
          ["bijectivity"]. *)
  detail : string;  (** Human-readable instance of the condition. *)
}

type obligation = { goal : goal; on_fail : error }
(** One emitted side condition: the goal to prove, and the positioned
    error the operator reports if the discharge fails. *)

type discharge = obligation -> bool
(** A prover for obligations.  Must be {e sound} (never accept a false
    goal); incompleteness only makes operators fail more often. *)

val concrete : discharge
(** Direct integer checking of each goal — the reference discharge the
    symbolic prover is tested against. *)

val pp_error : Format.formatter -> error -> unit

(** {1 Operators}

    Every operator takes the discharge function used to prove its side
    conditions and returns either the resulting layout or the first
    failed condition. *)

val compose : prove:discharge -> t -> t -> (t, error) result
(** [compose ~prove a b] is the strided layout of [a o b] (apply [b],
    then [a]).  Side conditions: [b]'s image must lie in [a]'s domain
    (["size"]), and [b]'s strides and extents must peel through [a]'s
    modes by the left-divisibility discipline
    (["left-divisibility"]). *)

val complement : prove:discharge -> t -> int -> (t, error) result
(** [complement ~prove a m] is the layout [a*] covering exactly the
    offsets of [0 .. m - 1] that [a] misses, ordered ascending.  Side
    conditions: strides positive (["injectivity"]), sorted modes
    pairwise disjoint by the divisibility chain (["disjointness"]), and
    [a]'s image contained in [0 .. m - 1] with the chain dividing [m]
    (["coverage"]).  [concat a* a] restricted-sorts into a bijection on
    [0 .. m - 1] — the property the QCheck suite asserts. *)

val tiler : prove:discharge -> t -> int -> (t, error) result
(** [tiler ~prove b m] is [concat (complement b m) b] — the bijection on
    [0 .. m - 1] that enumerates [b]'s tile fastest, then the complement
    (tile-grid) positions.  Equals [logical_product b (id (m / size b))]
    up to coalescing. *)

val logical_divide : prove:discharge -> t -> t -> (t, error) result
(** [logical_divide ~prove a b] is [a o (tiler b (size a))]: [a]
    re-expressed in the tile basis of [b] — inner modes walk one [b]
    tile through [a], outer modes walk the complement (the tile grid).
    Adds the side condition [size b | size a] (["size"]). *)

val logical_product : prove:discharge -> t -> t -> (t, error) result
(** [logical_product ~prove a b] is
    [concat ((complement a (size a * cosize b)) o b) a], where [cosize b]
    is one past the largest image point of [b]: one copy of [a]
    in the inner modes, replicated across the image of [b] applied to
    [a]'s complement in the outer modes. *)

val inverse : t -> t option
(** The strided layout of the inverse function, when [t] is a bijection
    ({!is_bijection}); [None] otherwise. *)

(** {1 Bridging to pieces} *)

val of_piece : Piece.t -> t option
(** The strided layout denoting the same flat function as a [RegP]
    piece; [None] for [GenP] (not strided in general). *)

val to_piece : ?op:string -> prove:discharge -> t -> (Piece.t, error) result
(** Package a layout as a [RegP] piece.  Emits the ["bijectivity"]
    obligations (the sorted strides must chain exactly to [size]); on
    success the piece's [apply] agrees pointwise with {!apply_int}.
    [op] labels errors (default ["to_piece"]). *)

val compose_pieces :
  prove:discharge -> Piece.t -> Piece.t -> (Piece.t, error) result
(** Function composition [a o b] at the piece level (equal element
    counts — the ["size"] obligation).  When both pieces are strided and
    the strided composition's side conditions hold, the result is again
    a [RegP]; otherwise it is a composite [GenP] whose
    {!Domain.S}-polymorphic bijection evaluates [b], reinterprets the
    flat offset in [a]'s logical space, and evaluates [a] — so the
    composite works in every backend (C / Triton / MLIR / symbolic),
    named [(a o b)] after the two pieces' printed forms. *)
