(** Lowering expressions to three-address code with common-subexpression
    elimination.

    N-ary sums/products are flattened into binary instruction chains and
    structurally equal subcomputations are assigned a single name — the
    form the MLIR backend prints as [arith] SSA (the paper leans on
    MLIR's CSE for the same cleanup). *)

type atom = Avar of string | Aconst of int

type opcode =
  | Add
  | Mul
  | Divf  (** floor division *)
  | Rem
  | CmpLe
  | CmpLt
  | CmpEq
  | Sel
  | Isqrt

type instr = { dst : string; op : opcode; args : atom list }

val lower : Lego_symbolic.Expr.t list -> instr list * atom list
(** [lower roots] returns the instruction sequence (dependencies first,
    destinations named [t0, t1, ...]) and one result atom per root.
    Free variables become [Avar] arguments; constants stay inline as
    [Aconst]. *)
