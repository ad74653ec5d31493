(** Syntactic sugar of section 3.2 of the paper.

    [TileBy] and [TileOrderBy] manipulate a q-level hierarchy over d
    dimensions; the interleave permutation [sigma_{d x q}] converts between
    the {e level-major} order (level 1's d extents, then level 2's, ...)
    and the {e dimension-major} order (dimension 1's q extents outer to
    inner, then dimension 2's, ...). *)

val row : Shape.t -> Piece.t
(** [Row([n1; ...; nd])]: row-major order — [RegP] with the identity. *)

val col : Shape.t -> Piece.t
(** [Col([n1; ...; nd])]: column-major order — [RegP] with the reversal
    permutation.  (The paper's literal definition also reverses the
    argument list; see DESIGN.md section 4 for why this convention
    reproduces the paper's own examples.) *)

val interleave : d:int -> q:int -> Sigma.t
(** [sigma_{d x q}]: maps level-major position [(h-1)*d + k] to
    dimension-major position [(k-1)*q + h] (1-based description, 0-based
    value).  E.g. [interleave ~d:2 ~q:3 = [1,3,5,2,4,6]] in paper
    notation. *)

val tile_by : Shape.t list -> Order_by.t
(** [TileBy([level1]; ...; [levelq])]: hierarchical tiling of [d]
    dimensions on [q] levels whose physical order is the canonical
    dimension-major strip-mining — flattening the logical tiled index
    yields the row-major offset of the untiled space. *)

val tile_order_by : Piece.t list -> Order_by.t list
(** [TileOrderBy(P1, ..., Pq)]: reorders the flat space whose
    dimension-major tiled view has level [h] of dimension [k] of extent
    [(Ph.dims)_k], applying each [Ph] to level [h].  Expands to the chain
    [OrderBy(P1, ..., Pq) . OrderBy(RegP(dim-major dims, interleave))]
    (two chain entries, listed outermost-first). *)

val tiled_view :
  ?order:Piece.t list -> group:Shape.t list -> unit -> Group_by.t
(** [tiled_view ~order ~group ()] is the common pattern
    [TileOrderBy(order).TileBy(group)]: a [Group_by.t] whose logical view
    is the tiled hierarchy [group] (level-major) over a physical space
    reordered by [order] ([row (full dims)] when omitted — i.e. plain
    row-major).  This is the paper's
    [L(d).TileOrderBy(...).TileBy(...)] notation. *)

val full_dims : Shape.t list -> Shape.t
(** The untiled extents: dimension [k]'s extent is the product over levels
    of level-shape component [k].  All level shapes must share a rank. *)

val padded_tiled_view : dims:Shape.t -> tile:Shape.t -> Group_by.t * Shape.t
(** When tile sizes do not divide the extents, LEGO conceptually pads the
    dimensions (the CuTe oversampling approach the paper references in
    section 3.3) and the indices stay correct; accesses to the pad must
    then be masked.  [padded_tiled_view ~dims ~tile] rounds each extent
    up to a tile multiple and returns the row-major two-level tiled view
    of the padded space together with the {e true} extents, from which
    {!Lego_codegen.Triton_printer.slice_mask} derives the masks. *)
