(** Interpreter for the MLIR subset: executes emitted index functions and
    [scf.for] copy loops so the MLIR backend can be validated end-to-end
    against the layout algebra (the role the MLIR toolchain plays in the
    paper's section 6.3).

    It runs over the slots {!Mparser} resolved: one [int] column per
    slot, with one lane per point, so no op looks a value up by name.
    {!run_func} is a one-lane call of the executor {!prepare} runs. *)

type value = Int of int | Mem of int array

exception Runtime_error of string

val run_func : Mast.modul -> string -> value list -> int list
(** [run_func m name args] executes function [name]; [Mem] arguments are
    mutated in place (that is how copy kernels return their result).
    Returns the [return] operands.  Raises {!Runtime_error} on a missing
    function, an arity or argument-type mismatch, a non-positive loop
    step or an out-of-bounds memory access, [Division_by_zero] on a zero
    divisor and [Invalid_argument] on a negative [lego.isqrt] operand.
    Unbound names and index/memref confusion are {!Mparser} errors. *)

type lanes = { results : int array array; raised : exn option array }
(** A call over several points at once, one lane each: [results.(k)]
    holds the [k]-th [return] operand in every lane, and lane [l]
    raised [ex] when [raised.(l) = Some ex] (its results are then
    meaningless). *)

val prepare : Mast.modul -> string -> lanes:int -> int array array -> lanes
(** [prepare m name] finds function [name] once and returns it as a
    function over columns of index arguments: [f ~lanes cols] runs the
    body on [lanes] points, [cols.(k)] holding the [k]-th parameter's
    value in every lane, one op over all lanes before the next.  Each
    lane gets what {!run_func} gives on that point alone: its [return]
    operands, or the exception it raises there.  A call raises
    {!Runtime_error} outright on a missing function, an arity mismatch
    or a memref parameter.  Each call allocates its own slots, so [f]
    may be shared across domains. *)
