module A = Lego_layout.Algebra

(* Constant goals fold under Expr's smart constructors, so Prover.le on
   the folded forms decides them exactly; the two-sided queries double as
   a live check that the prover agrees with plain integer arithmetic. *)
let const_le lhs rhs =
  Prover.le Range.empty_env (Expr.const lhs) (Expr.const rhs)

let const_eq lhs rhs = const_le lhs rhs && const_le rhs lhs

let prover (o : A.obligation) =
  match o.A.goal with
  | A.Divides { divisor; value } ->
      divisor <> 0
      &&
      let r = Expr.md (Expr.const value) (Expr.const divisor) in
      Prover.le Range.empty_env r Expr.zero
      && Prover.le Range.empty_env Expr.zero r
  | A.Le { lhs; rhs } -> const_le lhs rhs
  | A.Eq { lhs; rhs } -> const_eq lhs rhs
  | A.Image_bounded { layout; bound } ->
      (* A fresh environment per query: the discharge may run on any
         execution-layer domain, so no state is shared across calls. *)
      let env = Range.env_of_list [ ("x", Range.of_extent (A.size layout)) ] in
      let offset = A.apply (module Sym.Dom) layout (Expr.var "x") in
      Prover.in_half_open env offset (Expr.const bound)

let compose a b = A.compose ~prove:prover a b
let complement a m = A.complement ~prove:prover a m
let tiler b m = A.tiler ~prove:prover b m
let logical_divide a b = A.logical_divide ~prove:prover a b
let logical_product a b = A.logical_product ~prove:prover a b
let to_piece t = A.to_piece ~prove:prover t
let compose_pieces a b = A.compose_pieces ~prove:prover a b
