module L = Lego_layout

module Dom = struct
  type t = Expr.t

  let const = Expr.const
  let add = Expr.add
  let sub = Expr.sub
  let mul = Expr.mul
  let div = Expr.div
  let rem = Expr.md
  let le = Expr.le
  let lt = Expr.lt
  let eq = Expr.eq
  let select = Expr.select
  let isqrt = Expr.isqrt
  let pp = Expr.pp
end

let var_names g =
  List.mapi (fun k _ -> Printf.sprintf "i%d" k) (L.Group_by.dims g)

let index_vars g = List.map Expr.var (var_names g)

(* The {!Simplify} / {!Range} / {!Prover} memo caches are keyed by
   {e physical} env identity, so a fresh env per call starts them cold:
   every candidate in a tuning space shares the same dims — the same
   ranges — yet each rebuilt env threw the caches away.  Interning the
   env by its bindings keeps one physical env per logical space, for
   [apply]'s indices and [inv]'s offset alike, so sub-expression
   rewrites shared across calls actually hit.  Domain-local like every
   {!Memo}; at 4,096 distinct binding lists the table is flushed, which
   only costs the next envs a cold start. *)
module Bindings = struct
  type t = (string * int) list

  let equal = ( = )
  let hash = Hashtbl.hash
end

let envs : (unit, Bindings.t, Range.env) Memo.t =
  Memo.create ~name:"Sym.ranges_of" ~key:(module Bindings) ~capacity:4096
    ~initial:16 ()

let interned bindings =
  let tbl = Memo.table envs () in
  match Memo.find tbl bindings with
  | Some env -> env
  | None ->
    let env =
      Range.env_of_list
        (List.map (fun (v, extent) -> (v, Range.of_extent extent)) bindings)
    in
    Memo.add tbl bindings env;
    env

let ranges_of g = interned (List.combine (var_names g) (L.Group_by.dims g))

let inv_ranges ?(var = "p") g = interned [ (var, L.Group_by.numel g) ]

let apply ?(simplify = true) g =
  let env = ranges_of g in
  let raw = L.Group_by.apply (module Dom) g (index_vars g) in
  if simplify then Simplify.simplify ~env raw else raw

let inv ?(simplify = true) ?(var = "p") g =
  let env = inv_ranges ~var g in
  let raw = L.Group_by.inv (module Dom) g (Expr.var var) in
  if simplify then List.map (Simplify.simplify ~env) raw else raw
