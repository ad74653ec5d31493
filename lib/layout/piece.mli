(** LEGO's basic pieces: the [Perm] syntactic category of figure 5.

    A piece is a bijection between the logical index space of one tile and
    its canonical flat space.  [RegP] permutes whole dimensions by a static
    permutation; [GenP] is an arbitrary user-defined bijection written once
    against {!Domain.S} so that it evaluates both on concrete integers and
    on symbolic expressions. *)

type gen_bij = {
  gb_apply : 'a. (module Domain.S with type t = 'a) -> 'a list -> 'a;
      (** Logical multi-index to flat physical offset. *)
  gb_inv : 'a. (module Domain.S with type t = 'a) -> 'a -> 'a list;
      (** Flat physical offset back to the logical multi-index. *)
}

type t =
  | Gen of { dims : Shape.t; name : string; bij : gen_bij }
      (** [GenP]: [name] identifies the bijection for printing, parsing and
          structural comparison (functions are not comparable). *)
  | Reg of { dims : Shape.t; sigma : Sigma.t }  (** [RegP]. *)

val gen : name:string -> dims:Shape.t -> gen_bij -> t
(** Smart constructor; validates [dims]. *)

val reg : dims:Shape.t -> sigma:Sigma.t -> t
(** Smart constructor; validates [dims] and that the permutation rank
    matches the shape rank. *)

val dims : t -> Shape.t
val rank : t -> int
val numel : t -> int

val apply : (module Domain.S with type t = 'a) -> t -> 'a list -> 'a
(** The paper's [Perm::apply].  For [Reg]:
    [apply i = B_(sigma dims) (sigma i)]. *)

val inv : (module Domain.S with type t = 'a) -> t -> 'a -> 'a list
(** The paper's [Perm::inv].  For [Reg]:
    [inv flat = sigma^-1 (B^-1_(sigma dims) flat)]. *)

val apply_ints : t -> int list -> int
val inv_ints : t -> int -> int list

val equal : t -> t -> bool
(** Structural equality; [Gen] pieces compare by [name] and [dims]. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the paper notation: [GenP(name[dims])] or
    [RegP([dims], [sigma])]. *)

val to_string : t -> string
(** {!to_buffer} into a fresh string — the printed identity that names
    a piece in fingerprints and memo keys. *)

val pp : Format.formatter -> t -> unit
(** {!to_string}'s text. *)
