(** The [GroupBy] block of figure 5: a logical view plus a chain of
    reorderings.

    [GroupBy(shapes, [O1; ...; Ov])] gives the user a logical
    multi-dimensional view of a flat index space of [N] elements and
    composes the reordering transformations right-to-left: [apply] first
    flattens the logical index canonically, then (figure 7) traverses the
    chain in {e reverse} order, re-viewing the running flat index in each
    [OrderBy]'s logical space before applying it.  In the paper's dotted
    notation [O1.O2.GroupBy(shape)], the chain is [[O1; O2]] and [O2] acts
    first. *)

type t

val make : ?chain:Order_by.t list -> Shape.t list -> t
(** [make ~chain shapes] builds a grouping with hierarchy levels [shapes]
    (each level one shape; a plain d-dimensional view is a single level).
    Raises [Invalid_argument] if the levels' element counts multiply past
    [max_int], or if any chained [OrderBy] covers a different number of
    elements than the grouping. *)

val shapes : t -> Shape.t list
val chain : t -> Order_by.t list

val dims : t -> Shape.t
(** Concatenated logical dimensions, outermost level first — the shape of
    the index [apply] expects. *)

val numel : t -> int
val rank : t -> int

val prepend : Order_by.t -> t -> t
(** [prepend o g] is the layout written [o . g] in dotted notation: [o]
    becomes the {e last} reordering applied on the way to physical space
    (the outermost element of the chain). *)

val apply : (module Domain.S with type t = 'a) -> t -> 'a list -> 'a
val inv : (module Domain.S with type t = 'a) -> t -> 'a -> 'a list
val apply_ints : t -> int list -> int
val inv_ints : t -> int -> int list

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Appends the dotted notation [O1.O2.GroupBy(shapes)]. *)

val to_string : t -> string
(** {!to_buffer} into a fresh string: the full structural text every
    fingerprint, dedup key and store key is derived from, so its bytes
    are a stable contract. *)

val pp : Format.formatter -> t -> unit
(** {!to_string}'s text. *)
