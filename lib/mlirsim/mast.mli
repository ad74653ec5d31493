(** AST for the MLIR subset the LEGO backend emits: [func] over [index]
    and 1-D [memref] values, [arith] ops, [scf.for], [memref.load]/
    [memref.store], and the custom [lego.isqrt].

    Values are slots, not names: {!Mparser} resolves every SSA name as
    it reads.  A function's index values (parameters, op results and
    [scf.for] variables) are numbered densely from 0, in order of
    definition; its memref parameters are numbered separately.  Every
    [int] field below is an index slot, except [mem], which is a memref
    slot; the [*_names] arrays map slots back to names for messages. *)

type binop = Add | Mul | FloorDiv | Rem
type cmp = Le | Lt | Eq

type op =
  | Constant of { dst : int; value : int }
  | Binop of { dst : int; kind : binop; lhs : int; rhs : int }
  | Cmpi of { dst : int; kind : cmp; lhs : int; rhs : int }
  | Select of { dst : int; cond : int; if_true : int; if_false : int }
  | Isqrt of { dst : int; arg : int }
  | Load of { dst : int; mem : int; idx : int }
  | Store of { value : int; mem : int; idx : int }
  | For of { var : int; lb : int; ub : int; step : int; body : op list }
  | Return of int list

type slot = Index of int | Memref of int
(** A slot among the index values or among the memref parameters. *)

type func = {
  fname : string;
  params : slot list;
  body : op list;
  index_names : string array;
      (** Index slot to SSA name, without the [%]; one entry per slot. *)
  mem_names : string array;  (** Memref slot to SSA name. *)
}

type modul = func list

val find_func : modul -> string -> func option
