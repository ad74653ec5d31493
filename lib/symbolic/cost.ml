type weights = {
  add : int;
  mul : int;
  div : int;
  md : int;
  select : int;
  cmp : int;
  isqrt : int;
}

let default_weights =
  { add = 1; mul = 1; div = 3; md = 3; select = 1; cmp = 1; isqrt = 3 }

let ops ?(weights = default_weights) e =
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
    | Add xs ->
      ((List.length xs - 1) * weights.add)
      + List.fold_left (fun acc x -> acc + go x) 0 xs
    | Mul xs ->
      ((List.length xs - 1) * weights.mul)
      + List.fold_left (fun acc x -> acc + go x) 0 xs
    | Div (a, b) -> weights.div + go a + go b
    | Mod (a, b) -> weights.md + go a + go b
    | Select (c, a, b) -> weights.select + go c + go a + go b
    | Le (a, b) | Lt (a, b) | Eq (a, b) -> weights.cmp + go a + go b
    | Isqrt a -> weights.isqrt + go a
  in
  go e

let cheapest ?weights = function
  | [] -> invalid_arg "Cost.cheapest: empty candidate list"
  | e :: rest ->
    let better best cand = if ops ?weights cand < ops ?weights best then cand else best in
    List.fold_left better e rest

let best_of_expansion ?weights ~env e =
  let plain = Simplify.simplify ~env e in
  let expanded = Simplify.simplify ~env (Expand.expand e) in
  cheapest ?weights [ plain; expanded ]
