(** Operation-count cost model (section 4.1 of the paper).

    The paper generates both the expanded and the unexpanded variant of an
    index expression and keeps the one with the fewest operations; this
    module provides that count and the selection. *)

val ops : Expr.t -> int
(** Operation count: an [Add]/[Mul] of [n] arguments counts [n-1]
    operations, a select or comparison ([Le]/[Lt]/[Eq]) 1, and a
    division, modulo or square root 3, mirroring GPU instruction
    throughput; leaves are free. *)

val cheapest : Expr.t list -> Expr.t
(** The lowest-cost expression of a non-empty list (first wins ties).
    Raises [Invalid_argument] on an empty list. *)

val best_of_expansion : env:Range.env -> Expr.t -> Expr.t
(** Simplify both the original and the pre-expanded form and return the
    cheaper result — the paper's cost-model-guided choice. *)
