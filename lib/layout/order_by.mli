(** The [OrderBy] block of figure 5: a hierarchy of permuted tiles.

    [OrderBy(p1, ..., pq)] reorders a flat index space whose logical view is
    the concatenation of the pieces' tile shapes, outermost level first.
    [apply] flattens level by level from the outside in, [inv] unflattens
    from the inside out (figure 6 of the paper). *)

type t

val make : Piece.t list -> t
(** Raises [Invalid_argument] on an empty list, or when the pieces'
    element counts multiply past [max_int]. *)

val pieces : t -> Piece.t list

val dims : t -> Shape.t
(** Concatenation of the pieces' logical shapes (level-major). *)

val numel : t -> int

val apply : (module Domain.S with type t = 'a) -> t -> 'a list -> 'a
val inv : (module Domain.S with type t = 'a) -> t -> 'a -> 'a list
val apply_ints : t -> int list -> int
val inv_ints : t -> int -> int list

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Appends the paper notation, e.g. [OrderBy2(RegP([4, 8], [2, 1]))]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
(** {!to_string}'s text. *)
