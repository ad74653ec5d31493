(** Exhaustive validation of layouts.

    LEGO layouts are bijections by construction only when their pieces are;
    [GenP] pieces carry arbitrary user functions, so these checkers verify
    the claim by enumeration (intended for tests and for validating small
    user-supplied layouts at construction time).  Each is one sequential
    scan of the logical space in row-major order that stops at the first
    violation: at each index, bounds, then a repeated offset, then the
    [inv] roundtrip. *)

val max_elements : int
(** The largest element count either function accepts:
    [min Sys.max_string_length 2³²].  Each allocates one byte per element
    (4 GiB at the limit), so a larger count raises [Invalid_argument],
    naming the count, before anything is allocated. *)

val piece : Piece.t -> (unit, string) result
(** Check that a piece's [apply] is a bijection onto [0 .. numel - 1] and
    that [inv] is its exact inverse.  The error names the first
    violation. *)

val layout : Group_by.t -> (unit, string) result
(** Same check for a whole ensemble. *)
