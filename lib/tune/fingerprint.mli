(** Stable textual fingerprints of layouts.

    The tuner's ranking tie-breaks, the sim cache and the compile
    store's keys are derived from this fingerprint: a pure function of
    the layout's structure (its printed dotted notation), independent of
    physical equality, hashing seeds, or domain.  [GenP] parameters
    appear because the gallery encodes them in piece names. *)

val of_layout : Lego_layout.Group_by.t -> string
val compare : string -> string -> int

val compare_concat : string -> string -> string -> string -> int
(** [compare_concat a1 a2 b1 b2] is [String.compare (a1 ^ a2) (b1 ^ b2)],
    without building either string: the tuner's tie-break between
    candidates held as two printed parts ({!Space.compare_text}). *)
