module E = Lego_symbolic.Expr

type atom = Avar of string | Aconst of int

type opcode =
  | Add
  | Mul
  | Divf
  | Rem
  | CmpLe
  | CmpLt
  | CmpEq
  | Sel
  | Isqrt

type instr = { dst : string; op : opcode; args : atom list }

let lower roots =
  let table : (opcode * atom list, atom) Hashtbl.t = Hashtbl.create 64 in
  let instrs = ref [] in
  let counter = ref 0 in
  let emit op args =
    match Hashtbl.find_opt table (op, args) with
    | Some atom -> atom
    | None ->
      let dst = Printf.sprintf "t%d" !counter in
      incr counter;
      instrs := { dst; op; args } :: !instrs;
      let atom = Avar dst in
      Hashtbl.add table (op, args) atom;
      atom
  in
  let rec chain op = function
    | [] -> invalid_arg "Cse.lower: empty n-ary node"
    | [ a ] -> a
    | a :: b :: rest -> chain op (emit op [ a; b ] :: rest)
  in
  (* Hash-consed expressions make shared subtrees physically equal, so a
     memo over nodes skips re-lowering them entirely (the instruction
     table below still dedupes structurally identical chains). *)
  let memo : atom E.Tbl.t = E.Tbl.create 64 in
  let rec go (e : E.t) : atom =
    match e.node with
    | Const n -> Aconst n
    | Var v -> Avar v
    | _ -> (
      match E.Tbl.find_opt memo e with
      | Some a -> a
      | None ->
        let a = lower_node e in
        E.Tbl.add memo e a;
        a)
  and lower_node (e : E.t) : atom =
    match e.node with
    | Const n -> Aconst n
    | Var v -> Avar v
    | Add xs -> chain Add (List.map go xs)
    | Mul xs -> chain Mul (List.map go xs)
    | Div (a, b) -> emit Divf [ go a; go b ]
    | Mod (a, b) -> emit Rem [ go a; go b ]
    | Le (a, b) -> emit CmpLe [ go a; go b ]
    | Lt (a, b) -> emit CmpLt [ go a; go b ]
    | Eq (a, b) -> emit CmpEq [ go a; go b ]
    | Select (c, a, b) -> emit Sel [ go c; go a; go b ]
    | Isqrt a -> emit Isqrt [ go a ]
  in
  let results = List.map go roots in
  (List.rev !instrs, results)
