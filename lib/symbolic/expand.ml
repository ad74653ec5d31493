let expand (root : Expr.t) : Expr.t =
  (* Hash-consing makes repeated subtrees physically shared, so a per-call
     memo table turns the tree traversal into a DAG traversal. *)
  let memo : Expr.t Expr.Tbl.t = Expr.Tbl.create 64 in
  let rec go (e : Expr.t) : Expr.t =
    match e.node with
    | Const _ | Var _ -> e
    | _ -> (
      match Expr.Tbl.find_opt memo e with
      | Some r -> r
      | None ->
        let r = compute e in
        Expr.Tbl.add memo e r;
        r)
  and compute (e : Expr.t) : Expr.t =
    match e.node with
    | Const _ | Var _ -> e
    | Mul factors ->
      let factors = List.map go factors in
      let terms (e : Expr.t) = match e.node with Add xs -> xs | _ -> [ e ] in
      (* Fold factors together, distributing over any sum encountered. *)
      List.fold_left
        (fun acc f ->
          let acc_terms = terms acc and f_terms = terms f in
          Expr.sum
            (List.concat_map
               (fun a -> List.map (fun b -> Expr.mul a b) f_terms)
               acc_terms))
        Expr.one factors
    | _ -> Expr.map_children go e
  in
  go root
