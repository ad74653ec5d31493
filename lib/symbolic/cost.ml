let ops e =
  (* Memoized per call: hash-consed sharing means a repeated subtree is
     costed once (its tree cost, which every occurrence contributes). *)
  let memo : int Expr.Tbl.t = Expr.Tbl.create 64 in
  let rec go (e : Expr.t) =
    match e.node with
    | Const _ | Var _ -> 0
    | _ -> (
      match Expr.Tbl.find_opt memo e with
      | Some n -> n
      | None ->
        let n = compute e in
        Expr.Tbl.add memo e n;
        n)
  and compute (e : Expr.t) =
    match e.node with
    | Const _ | Var _ -> 0
    | Add xs | Mul xs ->
      List.length xs - 1 + List.fold_left (fun acc x -> acc + go x) 0 xs
    | Div (a, b) | Mod (a, b) -> 3 + go a + go b
    | Select (c, a, b) -> 1 + go c + go a + go b
    | Le (a, b) | Lt (a, b) | Eq (a, b) -> 1 + go a + go b
    | Isqrt a -> 3 + go a
  in
  go e

let cheapest = function
  | [] -> invalid_arg "Cost.cheapest: empty candidate list"
  | e :: rest ->
    let better best cand = if ops cand < ops best then cand else best in
    List.fold_left better e rest

let best_of_expansion ~env e =
  let plain = Simplify.simplify ~env e in
  let expanded = Simplify.simplify ~env (Expand.expand e) in
  cheapest [ plain; expanded ]
