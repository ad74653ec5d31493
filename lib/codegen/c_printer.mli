(** C/CUDA expression printing (the paper's CUDA template path).

    Renders an index expression as a C expression over [int] variables —
    what gets spliced into an [Arr2D]-style overloaded [operator[]] or a
    kernel template.  Division/modulo print as [/] and [%], which agree
    with the algebra's floor semantics on the non-negative index ranges
    LEGO guarantees; {!guard_nonneg} checks that claim with the range
    engine when an environment is supplied. *)

val expr : Lego_symbolic.Expr.t -> string
(** C expression text ([" * "], [" / "], ternaries for selects,
    [lego_isqrt] for integer square roots), rendered by
    {!Lego_symbolic.Expr.render}: each distinct node of a shared
    expression is rendered once, and the text is still the tree's. *)

val define : name:string -> Lego_symbolic.Expr.t -> string
(** [int name = <expr>;] *)

val function_def :
  name:string -> params:string list -> Lego_symbolic.Expr.t -> string
(** A complete [__host__ __device__] helper returning the expression. *)

val isqrt_helper : string
(** Definition of [lego_isqrt], emitted once per translation unit. *)

val guard_nonneg :
  env:Lego_symbolic.Range.env -> Lego_symbolic.Expr.t -> (unit, string) result
(** Verify every division/modulo dividend is provably non-negative (and
    its divisor positive) under [env], so C truncation equals floor
    division.  Each distinct node is checked once, in pre-order; the
    error names the first failing division in the tree's pre-order. *)
