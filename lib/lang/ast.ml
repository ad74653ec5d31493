type perm =
  | Reg_p of int list * int list
  | Gen_p of string * int list
  | Row of int list
  | Col of int list

type aexpr =
  | Atom of perm
  | Strided of int list * int list
  | Compose of aexpr * aexpr
  | Complement of aexpr * int
  | Divide of aexpr * aexpr
  | Product of aexpr * aexpr

type block =
  | Order_by of aexpr list
  | Group_by of int list list
  | Tile_by of int list list
  | Tile_order_by of aexpr list

type chain = block list
