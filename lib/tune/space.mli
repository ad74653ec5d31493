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
    is only ever generated {e lazily} through {!candidates} / {!count};
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
    masked XOR swizzles (prefix masks, shifts 0 and 1).  Empty unless
    the space was made with [~composed:true] and [cols] is a power of
    two [> 1]; raises [Invalid_argument] if a side condition fails (a
    construction bug, since the family is admissible by design). *)

(** {2 Candidates as (stage, base) pairs}

    A candidate is a {e base} (a root or a tiling), optionally behind
    one masked-swizzle {e stage} prepended as its outermost reordering.
    Both parts are records shared by every candidate that carries them:
    a traversal builds and prints one stage per [(mask, shift)] and one
    base per distinct base text.  A layout prints as its stages, each
    followed by a dot, then its grouping, so a candidate's text
    ({!Fingerprint.of_layout} of its layout) is its stage's text
    followed by its base's.  Neither the candidate's layout nor its text
    is built until {!layout} or {!text} asks for it. *)

type stage = private {
  s_id : int;
      (** Dense per traversal, from 0, in order of first use: a key for
          per-traversal tables.  Stages of two traversals may share
          ids. *)
  s_order : Lego_layout.Order_by.t;  (** The [swizzlex] reordering. *)
  s_text : string;  (** Its printed form followed by ['.']. *)
}

type base = private {
  b_id : int;  (** Dense per traversal, like [s_id]. *)
  b_layout : Lego_layout.Group_by.t;  (** Its chain is never empty. *)
  b_text : string;  (** {!Fingerprint.of_layout} of [b_layout]. *)
}

type candidate = { stage : stage option; base : base }

val candidates : t -> candidate Seq.t
(** Every candidate of the space, {e lazily}: the default space first,
    in the order above, followed — with [~scale:true] — by the scale
    product axes (three-level tilings, vectorization widths, every
    swizzle-free base crossed with the full mask >= 1 swizzle grid).
    De-duplicated on the [(stage, base)] pair, which drops exactly the
    candidates whose text repeats an earlier one: base records are one
    per text, and a stage's text has exactly one ['.'], at its end, so
    equal texts split into equal parts.  No two elements of the
    sequence have equal fingerprints, and a layout reachable through
    two axes is generated once.

    The memory a traversal keeps grows with its parts (155 stages and
    375 bases on the transpose [--scale] space), plus one bit per
    [(base, stage)] slot for the dedup.  Re-traversing the sequence
    from the start rebuilds all of it, and every traversal yields the
    identical sequence (the determinism contract above). *)

val layout : candidate -> Lego_layout.Group_by.t
(** The candidate's layout: the base's, with the stage prepended
    ([Group_by.prepend]). *)

val text : candidate -> string
(** The candidate's fingerprint text: the stage's text followed by the
    base's. *)

val built : unit -> int
(** Calls to {!layout} and {!text} so far in this process: the layouts
    and texts built from pairs. *)

val compare_text : candidate -> candidate -> int
(** [String.compare (text a) (text b)], without building either text
    ({!Fingerprint.compare_concat}). *)

val stream : t -> Lego_layout.Group_by.t Seq.t
(** The {!layout}s of {!candidates}. *)

val count : t -> int
(** Number of distinct candidates — one full traversal of
    {!candidates}, building no layout or text. *)

val closure : t -> Lego_layout.Group_by.t list
(** [List.of_seq (stream t)] — every candidate, in stream order,
    de-duplicated by fingerprint: the space the exhaustive strategy
    enumerates, and the denominator of the tuner's coverage report.
    Materializes the sequence; prefer {!stream} / {!count} on
    [~scale:true] spaces. *)

val has_gen : Lego_layout.Group_by.t -> bool
(** Whether any piece of the chain is a [GenP] (used to keep swizzles
    from stacking on named bijections). *)
