(** The tuner's candidate space for a 2-D logical shape.

    Every candidate is a {!Lego_layout.Group_by.t} whose logical view is
    the plain [[rows; cols]] group, so a kernel slot can address any of
    them uniformly with [apply_ints g [i; j]].  The space is a set of
    {b bases}, each crossed with a {b swizzle} family:

    - {b roots}: one [RegP] per sigma permutation of the two dimensions
      (row-major, column-major), plus the applicable gallery bijections
      (anti-diagonal, cyclic-diagonal, reverse, Morton, Hilbert), plus —
      with [~composed:true] — the {!composed} family;
    - {b tilings}: [TileOrderBy(P1, P2)] over every non-trivial divisor
      split of each extent and every sigma pair;
    - {b swizzles} (when [cols] is a power of two): a prepended
      [swizzlex_m<mask>_s<shift>] GenP on every swizzle-free base (the
      sigma roots, the tilings and the GenP-free composed roots),
      sampling prefix masks (widest first) with shifts 0..2.

    In order: the roots; each sigma root's swizzles followed by the
    tilings; the swizzles of the swizzle-free composed roots; each
    tiling's swizzles.

    With [~scale:true] the space additionally crosses product axes on
    top of that — ordered three-level tilings ([TileOrderBy(P1, P2,
    P3)] over every 3-factorization of each extent and every sigma
    triple), vectorization-width tilings (one dimension split off as a
    contiguous innermost [1; v] / [w; 1] vector), and the {e full}
    masked-swizzle grid (every mask >= 1 crossed with every shift)
    prepended to every swizzle-free base — which lifts the matmul shape
    from ~1.6 x 10³ to ~1.8 x 10⁵ distinct candidates.  The scale space
    is only ever generated {e lazily} through {!stream} / {!count};
    {!closure} would materialize it.

    Determinism contract: the generated sequence is a pure function of
    [(rows, cols, seed, composed, scale)].  Seed 0 is the canonical
    order; a non-zero seed shuffles within each family with a
    [Random.State] derived only from [(seed, family tag)]. *)

type t

val make :
  ?seed:int -> ?composed:bool -> ?elem_bytes:int -> ?scale:bool ->
  rows:int -> cols:int -> unit -> t
(** [scale] (default false) turns on the product axes above.
    [elem_bytes] (default 4) is accepted for compatibility and has no
    effect on the space.  Raises [Invalid_argument] on non-positive
    extents or [elem_bytes]. *)

val swizzle_family : t -> (int * int) list
(** The full [(mask, shift)] grid for this shape: masks
    [0 .. cols - 1] crossed with shifts [0 .. num_bits (rows - 1) - 1]
    (shift-major).  Empty unless [cols] is a power of two [> 1]. *)

val composed : t -> Lego_layout.Group_by.t list
(** The algebra-built composite family: for each tile (the contiguous
    row tile [(cols):(1)], whose divide is the identity, and the column
    tiles [(2):(cols)], [(4):(cols)] where they divide [rows]), the bare
    logical divide of the row-major space plus its compositions with
    masked XOR swizzles (prefix masks, shifts 0 and 1), every side
    condition discharged by the prover.  Empty unless the space was made
    with [~composed:true] and [cols] is a power of two [> 1]; raises
    [Invalid_argument] if a discharge fails (a construction bug, since
    the family is admissible by design). *)

val stream : t -> Lego_layout.Group_by.t Seq.t
(** Every candidate of the space, {e lazily}: the default space first,
    in the order above, followed — with [~scale:true] — by the scale
    product axes (three-level tilings, vectorization widths, every
    swizzle-free base crossed with the full mask >= 1 swizzle grid).
    De-duplicated by {!Fingerprint.digest}, so no two elements of the
    sequence have equal fingerprints and a layout reachable through two
    axes is generated once.  The only memory proportional to the space
    is the 16-byte-per-candidate dedup set, built as the consumer
    pulls; re-traversing the stream from the start rebuilds it, and
    every traversal yields the identical sequence (the determinism
    contract above). *)

val count : t -> int
(** Number of distinct candidates — one full traversal of {!stream},
    nothing retained beyond the dedup set. *)

val closure : t -> Lego_layout.Group_by.t list
(** [List.of_seq (stream t)] — every candidate, in stream order,
    de-duplicated by fingerprint: the space the exhaustive strategy
    enumerates, and the denominator of the tuner's coverage report.
    Materializes the sequence; prefer {!stream} / {!count} on
    [~scale:true] spaces. *)

val has_gen : Lego_layout.Group_by.t -> bool
(** Whether any piece of the chain is a [GenP] (used to keep swizzles
    from stacking on named bijections). *)
