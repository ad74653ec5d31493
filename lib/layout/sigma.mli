(** Static permutations of dimension positions.

    A [Sigma.t] is the statically-known permutation used by [RegP]: if the
    logical shape of a tile is [n1 x ... x nd] then the physical shape is
    [n_sigma(1) x ... x n_sigma(d)].  Internally 0-based; the textual
    notation (and {!of_one_based}) is 1-based to match the paper. *)

type t

val of_list : int list -> t
(** [of_list [p0; ...; p(d-1)]] builds the permutation mapping physical
    position [k] to logical position [pk] (0-based).  Raises
    [Invalid_argument] if the list is not a permutation of [0..d-1]. *)

val of_one_based : int list -> t
(** The paper's notation: [of_one_based [2; 1]] swaps two dimensions. *)

val to_list : t -> int list
val to_one_based : t -> int list

val identity : int -> t
val reversal : int -> t
(** [reversal d] is [[d; ...; 1]] in paper notation — column-major order. *)

val rank : t -> int
val equal : t -> t -> bool
val is_identity : t -> bool

val inverse : t -> t
(** Obtained by scattering [0..d-1] at the positions of sigma. *)

val compose : t -> t -> t
(** [compose s2 s1] applies [s1] first: [permute (compose s2 s1) xs =
    permute s2 (permute s1 xs)]. *)

val permute : t -> 'a list -> 'a list
(** [permute s xs] is the list [ys] with [ys_k = xs_(s k)] — the paper's
    [sigma(x)] applied to dimensions or index components. *)

val apply : t -> int -> int
(** [apply s k] is the logical position stored at physical position [k]. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the 1-based paper notation, e.g. [[2, 1]]. *)

val pp : Format.formatter -> t -> unit
(** {!to_buffer}'s text. *)

val all : int -> t list
(** Every permutation of rank [d] (use only for small [d], e.g. tests). *)
