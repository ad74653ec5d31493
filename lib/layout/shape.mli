(** Dimension vectors and the canonical bijections [B] / [B^-1].

    A shape is the list of extents [n1; ...; nd] of a d-dimensional index
    space.  The canonical bijection [B] of the paper's equation (2) maps a
    multi-dimensional index to the flat row-major offset, and [B^-1] maps it
    back; they are the glue binding LEGO blocks together and never reorder
    elements in memory. *)

type t = int list

val validate : t -> unit
(** Ensure every extent is positive and the element count is at most
    [max_int]; raises [Invalid_argument] otherwise, naming the extents
    when the count overflows. *)

val numel : t -> int
(** Product of the extents (the size of the flat space). *)

val rank : t -> int

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Appends the printed form, e.g. [[4, 8]]. *)

val pp : Format.formatter -> t -> unit
(** {!to_buffer}'s text. *)

val flatten :
  (module Domain.S with type t = 'a) -> t -> 'a list -> 'a
(** [flatten (module D) dims idx] is the canonical bijection
    [B_dims idx = i1 * n2 * ... * nd + ... + i(d-1) * nd + id].
    Raises [Invalid_argument] when [idx] and [dims] disagree in length. *)

val unflatten :
  (module Domain.S with type t = 'a) -> t -> 'a -> 'a list
(** [unflatten (module D) dims flat] is [B^-1_dims flat]: peels components
    from the innermost dimension outwards using floor div/mod. *)

val flatten_ints : t -> int list -> int
(** {!flatten} specialised to the integer domain. *)

val unflatten_ints : t -> int -> int list
(** {!unflatten} specialised to the integer domain. *)

val indices : t -> int list Seq.t
(** All multi-dimensional indices of the shape in row-major order. *)
