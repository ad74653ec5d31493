module E = Lego_symbolic.Expr

let syntax =
  { E.mul = " * "; div = " / "; select = `Ternary; isqrt = ("lego_isqrt(", ")") }

let expr e = E.render syntax e
let define ~name e = Printf.sprintf "int %s = %s;" name (expr e)

let function_def ~name ~params e =
  Printf.sprintf
    "__host__ __device__ static inline int %s(%s) {\n  return %s;\n}" name
    (String.concat ", " (List.map (fun p -> "int " ^ p) params))
    (expr e)

let isqrt_helper =
  "__host__ __device__ static inline int lego_isqrt(int x) {\n\
  \  int r = (int)sqrtf((float)x);\n\
  \  while (r * r > x) --r;\n\
  \  while ((r + 1) * (r + 1) <= x) ++r;\n\
  \  return r;\n\
   }"

let guard_nonneg ~env e =
  let module P = Lego_symbolic.Prover in
  (* Pre-order, skipping nodes already seen: a repeat's subtree was
     walked in full at its first occurrence, so the first failing node
     is the tree walk's, and each distinct node costs one prover query. *)
  let seen = E.Tbl.create 64 in
  let exception Bad of E.t in
  let rec go (e : E.t) =
    if not (E.Tbl.mem seen e) then begin
      E.Tbl.add seen e ();
      match e.node with
      | Const _ | Var _ -> ()
      | Add xs | Mul xs -> List.iter go xs
      | Div (a, b) | Mod (a, b) ->
        if not (P.nonneg env a && P.positive env b) then raise (Bad e);
        go a;
        go b
      | Le (a, b) | Lt (a, b) | Eq (a, b) ->
        go a;
        go b
      | Select (c, a, b) ->
        go c;
        go a;
        go b
      | Isqrt a -> go a
    end
  in
  match go e with
  | () -> Ok ()
  | exception Bad bad ->
    Error
      (Printf.sprintf
         "C division truncates toward zero but %s is not provably \
          non-negative/positive"
         (E.to_string bad))
