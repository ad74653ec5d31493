(** Interpreter for the MLIR subset: executes emitted index functions and
    [scf.for] copy loops so the MLIR backend can be validated end-to-end
    against the layout algebra (the role the MLIR toolchain plays in the
    paper's section 6.3).

    It runs over the slots {!Mparser} resolved: one [int array] of index
    values per call, so no op looks a value up by name. *)

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
