(** Layouts compiled to specialized flat-index closures.

    [Group_by.apply_ints] re-traverses the layout structure and
    allocates intermediate index lists on every call, which would
    dominate the fast-path simulator's per-access cost (and the static
    pass's, for the few candidates with no F₂ form).
    {!compile} walks the structure {e once} and builds an [int -> int]
    closure over precomputed strides: [Reg] pieces become pure
    mixed-radix digit arithmetic (no table, so views of any size
    compile), [Gen] pieces a lazily-filled table (each address evaluated
    symbolically at most once).  The closure computes exactly
    [Group_by.apply_ints] — checked differentially over the conformance
    corpus — so fast-path simulations driven by compiled addresses stay
    bit-identical to the interpreter. *)

type t

val dims : t -> Lego_layout.Shape.t
val numel : t -> int

val compile : Lego_layout.Group_by.t -> t

val prepend : Lego_layout.Order_by.t -> t -> t
(** [prepend o (compile g)] computes what [compile (Group_by.prepend o
    g)] does, without building that layout.  Raises [Invalid_argument]
    when [o] covers a different number of elements. *)

val apply_flat : t -> int -> int
(** [apply_flat c flat] = [Group_by.apply_ints g (unflatten (dims g) flat)]. *)

val apply : t -> int list -> int
(** [apply c idx] = [Group_by.apply_ints g idx]. *)
