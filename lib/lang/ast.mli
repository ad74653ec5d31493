(** Surface-syntax AST, mirroring the grammar of the paper's figure 5
    plus the dotted-chain notation, the sugar of section 3.2, and the
    CuTe-style algebra operators. *)

type perm =
  | Reg_p of int list * int list  (** dims, 1-based permutation *)
  | Gen_p of string * int list  (** gallery bijection name, dims *)
  | Row of int list
  | Col of int list

type aexpr =
  | Atom of perm
  | Strided of int list * int list
      (** [Strided([shape], [stride])] — a raw strided layout literal,
          useful as an operand of the operators below (it need not be a
          bijection by itself). *)
  | Compose of aexpr * aexpr  (** infix [a o b]; left-associative *)
  | Complement of aexpr * int  (** [complement(a, M)] *)
  | Divide of aexpr * aexpr  (** [divide(a, b)] — logical division *)
  | Product of aexpr * aexpr  (** [product(a, b)] — logical product *)

type block =
  | Order_by of aexpr list
  | Group_by of int list list
  | Tile_by of int list list
  | Tile_order_by of aexpr list

type chain = block list
(** Written order: the final block is the grouping ([GroupBy]/[TileBy]),
    preceding blocks are reorderings applied right-to-left. *)
