(** Triton (Python) code generation with NumPy-style slicing (sections
    4.1 and 5 of the paper).

    Indexing a layout with a mix of fixed indices and [`All] slices (the
    paper's [DL_a[lpid_m, k, :, :]]) produces a tensor-valued offset
    expression: each sliced dimension becomes a [tl.arange(0, n)] ranged
    variable, broadcast against the other slices with [[:, None]] /
    [[None, :]] suffixes.  The bounds come from the layout — they must be
    static, which Triton requires of [tl.arange]. *)

type index = Fix of Lego_symbolic.Expr.t | All
(** One logical index position: a fixed (scalar) expression or a [:]. *)

val expr : Lego_symbolic.Expr.t -> string
(** Scalar Python rendering ([//] and [%] — Python floor semantics match
    the algebra exactly; [tl.where] for selects), rendered by
    {!Lego_symbolic.Expr.render}: each distinct node of a shared
    expression is rendered once, and the text is still the tree's. *)

val slice_offset :
  ?env:Lego_symbolic.Range.env -> Lego_layout.Group_by.t -> index list -> string
(** The tensor offset expression for the given mixed indexing, simplified
    under [env] (default empty).  Sliced dimensions are ranged over their
    full extent during simplification, so tile-local bound proofs still
    fire.  Raises [Invalid_argument] if the index list's length differs
    from the layout rank or more than two positions are sliced (Triton
    tensors in this template are <= 2-D). *)

val slice_mask :
  group:Lego_layout.Shape.t list ->
  extents:Lego_layout.Shape.t ->
  index list ->
  string option
(** Masks for partial tiles (section 3.3 of the paper): for a (possibly
    padded) tiled view with hierarchy [group] whose {e true} per-dimension
    extents are [extents], produce the boolean tensor expression guarding
    a load/store at the given mixed indexing — one [coord < extent]
    conjunct per dimension whose padded extent exceeds the true one
    ([None] when no padding, so no mask is needed).  Each guard is
    simplified with only the sliced dimensions' ranges in scope.
    Broadcast suffixes match {!slice_offset} for the same index list. *)

val arange_var : int -> string
(** Name of the synthetic variable standing for slice number [k] (exposed
    for tests). *)
