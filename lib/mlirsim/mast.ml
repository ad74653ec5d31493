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

type func = {
  fname : string;
  params : slot list;
  body : op list;
  index_names : string array;
  mem_names : string array;
}

type modul = func list

let find_func m name = List.find_opt (fun f -> f.fname = name) m
