(** Seeded random layout generator for the conformance harness.

    Generates structurally valid [GroupBy] layouts — random grouping
    hierarchies with chains of [OrderBy]s over [RegP] and gallery [GenP]
    pieces — with every shape constraint satisfied by construction
    (pieces only placed on element counts they fit: squares for
    anti-diagonals, powers of four for Morton/Hilbert, power-of-two
    columns for swizzles).  Element counts are kept small (a few hundred)
    so every generated layout can be checked exhaustively.

    Generation is deterministic: the same [(seed, index)] always yields
    the same layout, which is what makes printed reproductions
    ([CONFORM_SEED=... layout #k]) work. *)

val layout_of_seed : seed:int -> index:int -> Lego_layout.Group_by.t
(** The [index]-th layout of the stream identified by [seed].  Each index
    draws from an independent PRNG state, so a reproduction needs only
    the pair, not the whole stream prefix. *)

val algebra_layout_of_seed : seed:int -> index:int -> Lego_layout.Group_by.t
(** The [index]-th layout of the {e algebra} stream identified by
    [seed] — an independent stream from {!layout_of_seed}.  Each term
    starts from a random power-of-two strided bijection and applies up
    to two algebra operators (logical divide by a sub-tile of its own
    modes, logical product with an identity, composition with a fresh
    bijection); the terms are admissible by construction, every side
    condition holding because all extents and strides stay powers of
    two.  A third of the stream additionally composes with a random
    gallery piece, exercising the composite (GenP) fallback of
    {!Lego_layout.Algebra.compose_pieces}. *)
