(** Exhaustive validation of layouts.

    LEGO layouts are bijections by construction only when their pieces are;
    [GenP] pieces carry arbitrary user functions, so these checkers verify
    the claim by enumeration (intended for tests and for validating small
    user-supplied layouts at construction time). *)

val max_elements : int
(** The largest element count any function here accepts:
    [min Sys.max_array_length 2³²].  Each allocates arrays of one entry
    per element, so a larger count raises [Invalid_argument], naming
    the count, before anything is allocated. *)

val piece : ?jobs:int -> Piece.t -> (unit, string) result
(** Check that a piece's [apply] is a bijection onto [0 .. numel - 1] and
    that [inv] is its exact inverse.  [jobs] (default 1) splits large
    index spaces into ranges checked in parallel on a {!Lego_exec.Exec}
    pool, with a sequential occupancy merge: the verdict — including the
    first violation reported and its message — is byte-identical at any
    [jobs]. *)

val layout : ?jobs:int -> Group_by.t -> (unit, string) result
(** Same check (and the same [jobs] contract) for a whole ensemble. *)

val table : Group_by.t -> int array
(** [table g] tabulates [apply] over the logical space in row-major order:
    element [k] is the physical offset of the logical index with flat
    position [k] — e.g. the contents of the paper's figure 9 pictures. *)

val physical_to_logical : Group_by.t -> int array array
(** [physical_to_logical g] lists, for each physical offset, the logical
    multi-index stored there (the inverse picture). *)
