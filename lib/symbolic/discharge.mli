(** Prover-backed discharge of layout-algebra side conditions.

    {!Lego_layout.Algebra} emits its operators' side conditions as
    neutral {!Lego_layout.Algebra.obligation} values; this module is the
    other half of that contract, routing each goal through {!Prover}:

    - [Divides]/[Le]/[Eq] goals fold to constants under {!Expr}'s smart
      constructors and are decided exactly by [Prover.le] on the folded
      forms (so they also exercise the prover's cancellation path);
    - [Image_bounded] goals are proven {e symbolically}: the layout is
      applied to a fresh index variable [x] ranged over its domain via
      {!Sym.Dom}, and [Prover.in_half_open] bounds the resulting offset
      expression with the interval analysis of {!Range}.

    [prover] is sound and — because strides are non-negative and the
    interval join over independent digit ranges is exact for strided
    layouts — agrees with [Algebra.concrete] on every obligation the
    operators emit (property-tested in the algebra suite).  A fresh
    range environment is built per query, keeping the discharge safe to
    call from any execution-layer domain. *)

val prover : Lego_layout.Algebra.discharge

(** {1 Operators with the prover pre-applied} *)

val compose :
  Lego_layout.Algebra.t ->
  Lego_layout.Algebra.t ->
  (Lego_layout.Algebra.t, Lego_layout.Algebra.error) result

val complement :
  Lego_layout.Algebra.t ->
  int ->
  (Lego_layout.Algebra.t, Lego_layout.Algebra.error) result

val tiler :
  Lego_layout.Algebra.t ->
  int ->
  (Lego_layout.Algebra.t, Lego_layout.Algebra.error) result

val logical_divide :
  Lego_layout.Algebra.t ->
  Lego_layout.Algebra.t ->
  (Lego_layout.Algebra.t, Lego_layout.Algebra.error) result

val logical_product :
  Lego_layout.Algebra.t ->
  Lego_layout.Algebra.t ->
  (Lego_layout.Algebra.t, Lego_layout.Algebra.error) result

val to_piece :
  Lego_layout.Algebra.t ->
  (Lego_layout.Piece.t, Lego_layout.Algebra.error) result
(** {!Lego_layout.Algebra.to_piece}, its errors labelled ["to_piece"]. *)

val compose_pieces :
  Lego_layout.Piece.t ->
  Lego_layout.Piece.t ->
  (Lego_layout.Piece.t, Lego_layout.Algebra.error) result
(** {!Lego_layout.Algebra.compose_pieces}: a composite [GenP] is named
    [(a o b)] after the two pieces' printed forms. *)
