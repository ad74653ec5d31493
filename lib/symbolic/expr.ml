type t = { node : node; id : int }

and node =
  | Const of int
  | Var of string
  | Add of t list
  | Mul of t list
  | Div of t * t
  | Mod of t * t
  | Select of t * t * t
  | Le of t * t
  | Lt of t * t
  | Eq of t * t
  | Isqrt of t

let tag = function
  | Const _ -> 0
  | Var _ -> 1
  | Add _ -> 2
  | Mul _ -> 3
  | Div _ -> 4
  | Mod _ -> 5
  | Select _ -> 6
  | Le _ -> 7
  | Lt _ -> 8
  | Eq _ -> 9
  | Isqrt _ -> 10

let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Const x, Const y -> Int.compare x y
    | Var x, Var y -> String.compare x y
    | Add xs, Add ys | Mul xs, Mul ys -> List.compare compare xs ys
    | Div (x1, x2), Div (y1, y2) | Mod (x1, x2), Mod (y1, y2) ->
      let c = compare x1 y1 in
      if c <> 0 then c else compare x2 y2
    | Le (x1, x2), Le (y1, y2)
    | Lt (x1, x2), Lt (y1, y2)
    | Eq (x1, x2), Eq (y1, y2) ->
      let c = compare x1 y1 in
      if c <> 0 then c else compare x2 y2
    | Select (x1, x2, x3), Select (y1, y2, y3) ->
      let c = compare x1 y1 in
      if c <> 0 then c
      else
        let c = compare x2 y2 in
        if c <> 0 then c else compare x3 y3
    | Isqrt x, Isqrt y -> compare x y
    | a, b -> Int.compare (tag a) (tag b)

let equal a b = a == b || compare a b = 0

(* ---- Hash-consing ----------------------------------------------------- *)

(* Every freshly built node is routed through a unique table so that
   structurally equal expressions are physically equal in the common
   case.  Children are interned before their parents, so the table can
   hash and compare a node shallowly: its constructor, its constant or
   variable name, and its children's ids, children compared with [==].
   Each intern is then O(arity), however deep the node.  The table is a
   one-environment {!Memo} instance: when it fills up it is flushed,
   after which [==] stays sound but loses completeness (a node rebuilt
   over pre-flush children is a new node) — which is why
   [equal]/[compare] keep a structural fallback.

   Like every memo, the table is domain-local, so interning is lock-free
   and [==] completeness holds within a domain.  Ids come from one
   process-wide counter, so a node built by a worker domain and returned
   never shares its id with another node: the id-keyed memos of
   {!Range}, {!Prover} and {!Simplify} stay exact on any domain, and
   [equal]/[compare]'s structural fallback covers pairs interned by
   different domains. *)

(* Integer mixing (MurmurHash3's 64-bit finalizer, constants truncated to
   OCaml's 63-bit ints), so the low bits a hash table indexes by depend
   on every bit of the tag, payload and child ids. *)
let mix h =
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

module Node = struct
  type t = node

  let equal a b =
    match (a, b) with
    | Const x, Const y -> x = y
    | Var x, Var y -> String.equal x y
    | Add xs, Add ys | Mul xs, Mul ys -> List.equal ( == ) xs ys
    | Div (x1, x2), Div (y1, y2)
    | Mod (x1, x2), Mod (y1, y2)
    | Le (x1, x2), Le (y1, y2)
    | Lt (x1, x2), Lt (y1, y2)
    | Eq (x1, x2), Eq (y1, y2) ->
      x1 == y1 && x2 == y2
    | Select (x1, x2, x3), Select (y1, y2, y3) ->
      x1 == y1 && x2 == y2 && x3 == y3
    | Isqrt x, Isqrt y -> x == y
    | _ -> false

  let hash n =
    let child h x = mix (h + x.id) in
    let t = tag n in
    let h =
      match n with
      | Const c -> mix (t + c)
      | Var v -> mix (t + String.hash v)
      | Add xs | Mul xs -> List.fold_left child t xs
      | Div (a, b) | Mod (a, b) | Le (a, b) | Lt (a, b) | Eq (a, b) ->
        child (child t a) b
      | Select (c, a, b) -> child (child (child t c) a) b
      | Isqrt a -> child t a
    in
    h land max_int
end

let memo : (unit, node, t) Memo.t =
  Memo.create ~name:"Expr.intern" ~key:(module Node) ~capacity:(1 lsl 17)
    ~initial:4096 ()

let next_id = Atomic.make 0

let intern node =
  let tbl = Memo.table memo () in
  match Memo.find tbl node with
  | Some e -> e
  | None ->
    let e = { node; id = Atomic.fetch_and_add next_id 1 } in
    Memo.add tbl node e;
    e

let const n = intern (Const n)
let var name = intern (Var name)
let zero = const 0
let one = const 1
let mk_add es = intern (Add es)
let mk_mul es = intern (Mul es)

(* ---- Overflow-safe constant folding ----------------------------------- *)

(* Constant folds must never wrap: a fold that overflows the native int is
   skipped and the node stays symbolic (the guard-by-division idiom of
   [Range.sat_mul]).  [min_int] is rejected outright so that [abs] is
   total. *)

let add_no_ovf a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then None
  else Some s

let mul_no_ovf a b =
  if a = 0 || b = 0 then Some 0
  else if a = min_int || b = min_int then None
  else if abs a > max_int / abs b then None
  else Some (a * b)

(* (coefficient, non-constant factors) view of a product. *)
let as_linear_term e =
  match e.node with
  | Const n -> (n, [])
  | Mul ({ node = Const n; _ } :: rest) -> (n, rest)
  | Mul factors -> (1, factors)
  | _ -> (1, [ e ])

let of_linear_term (coeff, factors) =
  match (coeff, factors) with
  | 0, _ -> zero
  | n, [] -> const n
  | 1, [ f ] -> f
  | 1, fs -> mk_mul fs
  | n, fs -> mk_mul (const n :: fs)

(* Like terms, keyed by their non-constant factors.  Applied once here,
   not per [sum]: the functor's instance costs more than a small sum. *)
module Factors = Map.Make (struct
  type nonrec t = t list

  let compare = List.compare compare
end)

let sum terms =
  (* Flatten, fold constants, collect like terms, order canonically. *)
  let flat =
    List.concat_map
      (fun e -> match e.node with Add xs -> xs | _ -> [ e ])
      terms
  in
  let constant = ref 0 in
  (* Constants whose fold would overflow stay as separate summands. *)
  let unfolded = ref [] in
  let by_factors =
    List.fold_left
      (fun acc e ->
        let coeff, factors = as_linear_term e in
        if factors = [] then begin
          (match add_no_ovf !constant coeff with
          | Some s -> constant := s
          | None -> unfolded := coeff :: !unfolded);
          acc
        end
        else
          Factors.update factors
            (function
              | None -> Some [ coeff ]
              | Some (c :: cs) -> (
                match add_no_ovf c coeff with
                | Some s -> Some (s :: cs)
                | None -> Some (coeff :: c :: cs))
              | Some [] -> Some [ coeff ])
            acc)
      Factors.empty flat
  in
  let monomials =
    Factors.fold
      (fun factors coeffs acc ->
        List.fold_left
          (fun acc coeff ->
            if coeff = 0 then acc else of_linear_term (coeff, factors) :: acc)
          acc coeffs)
      by_factors []
  in
  let monomials = List.sort compare monomials in
  let extras = List.map const !unfolded in
  let with_const =
    if !constant = 0 && (monomials <> [] || extras <> []) then
      extras @ monomials
    else (const !constant :: extras) @ monomials
  in
  match with_const with [] -> zero | [ e ] -> e | es -> mk_add es

let scale_term_opt c t =
  let coeff, factors = as_linear_term t in
  Option.map (fun cc -> of_linear_term (cc, factors)) (mul_no_ovf c coeff)

let sum_distributed c terms =
  let scaled = List.filter_map (scale_term_opt c) terms in
  if List.length scaled = List.length terms then Some (sum scaled) else None

let product factors =
  let flat =
    List.concat_map
      (fun e -> match e.node with Mul xs -> xs | _ -> [ e ])
      factors
  in
  let constant = ref 1 in
  let rest =
    List.filter
      (fun e ->
        match e.node with
        | Const n -> (
          match mul_no_ovf !constant n with
          | Some c ->
            constant := c;
            false
          | None -> true (* overflow: keep the constant as a factor *))
        | _ -> true)
      flat
  in
  if !constant = 0 then zero
  else
    let generic rest =
      let rest = List.sort compare rest in
      let with_const =
        if !constant = 1 && rest <> [] then rest else const !constant :: rest
      in
      match with_const with [] -> one | [ e ] -> e | es -> mk_mul es
    in
    match rest with
    | [ { node = Add terms; _ } ] -> (
      (* Distribute a constant over a lone sum so that differences of
         equal sums cancel in the Add normal form (the prover depends on
         this); skipped when a scaled coefficient would overflow. *)
      match sum_distributed !constant terms with
      | Some e -> e
      | None -> generic rest)
    | _ -> generic rest

let add a b = sum [ a; b ]
let mul a b = product [ a; b ]
let neg a = mul (const (-1)) a
let sub a b = add a (neg b)

let div a b =
  match (a.node, b.node) with
  | _, Const 1 -> a
  | Const x, Const y when y <> 0 && not (x = min_int && y = -1) ->
    const (Lego_layout.Domain.floor_div x y)
  | Const 0, _ -> zero
  | _ -> intern (Div (a, b))

let md a b =
  match (a.node, b.node) with
  | _, Const 1 -> zero
  | Const x, Const y when y <> 0 && not (x = min_int && y = -1) ->
    const (Lego_layout.Domain.floor_rem x y)
  | Const 0, _ -> zero
  | _ -> intern (Mod (a, b))

let bool_fold op a b mk =
  match (a.node, b.node) with
  | Const x, Const y -> const (if op x y then 1 else 0)
  | _ when equal a b -> const (if op 0 0 then 1 else 0)
  | _ -> intern (mk (a, b))

let le a b = bool_fold ( <= ) a b (fun (a, b) -> Le (a, b))
let lt a b = bool_fold ( < ) a b (fun (a, b) -> Lt (a, b))
let eq a b = bool_fold ( = ) a b (fun (a, b) -> Eq (a, b))

let select c a b =
  match c.node with
  | Const 0 -> b
  | Const _ -> a
  | _ -> if equal a b then a else intern (Select (c, a, b))

let isqrt e =
  match e.node with
  | Const n when n >= 0 -> const (Lego_layout.Domain.int_isqrt n)
  | _ -> intern (Isqrt e)

let same_list xs ys = List.for_all2 (fun x y -> x == y) xs ys

let map_children f e =
  (* When every child maps to itself the node is returned unchanged: with
     hash-consed children this makes no-op rewrite passes O(1) per node
     and lets fixpoint detection hit the physical-equality fast path. *)
  match e.node with
  | Const _ | Var _ -> e
  | Add xs ->
    let xs' = List.map f xs in
    if same_list xs xs' then e else sum xs'
  | Mul xs ->
    let xs' = List.map f xs in
    if same_list xs xs' then e else product xs'
  | Div (a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then e else div a' b'
  | Mod (a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then e else md a' b'
  | Select (c, a, b) ->
    let c' = f c and a' = f a and b' = f b in
    if c' == c && a' == a && b' == b then e else select c' a' b'
  | Le (a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then e else le a' b'
  | Lt (a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then e else lt a' b'
  | Eq (a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then e else eq a' b'
  | Isqrt a ->
    let a' = f a in
    if a' == a then e else isqrt a'

let vars e =
  let rec go acc e =
    match e.node with
    | Const _ -> acc
    | Var v -> v :: acc
    | Add xs | Mul xs -> List.fold_left go acc xs
    | Div (a, b) | Mod (a, b) | Le (a, b) | Lt (a, b) | Eq (a, b) ->
      go (go acc a) b
    | Select (c, a, b) -> go (go (go acc c) a) b
    | Isqrt a -> go acc a
  in
  List.sort_uniq String.compare (go [] e)

let rec subst bindings e =
  match e.node with
  | Var v -> ( match List.assoc_opt v bindings with Some e' -> e' | None -> e)
  | Const _ -> e
  | _ -> map_children (subst bindings) e

(* ---- Walks over the DAG ---------------------------------------------- *)

(* Hash-consing shares repeated subterms physically, so a walk that keys
   per-node results by node identity visits each distinct node once
   however often it recurs in the tree.  Ids are dense, so the id itself
   is the hash. *)
module Id = struct
  type t = int

  let equal = Int.equal
  let hash id = id
end

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash e = e.id
end)

(* The evaluator's numbered form of an expression: one slot per distinct
   node, children before their parents, children and variables referred
   to by position. *)
type slot =
  | S_const of int
  | S_var of int
  | S_add of int array
  | S_mul of int array
  | S_div of int * int
  | S_mod of int * int
  | S_select of int * int * int
  | S_le of int * int
  | S_lt of int * int
  | S_eq of int * int
  | S_isqrt of int

(* [param v] is variable [v]'s column. *)
let number ~param e =
  let ids = Tbl.create 64 in
  let slots = ref [] and count = ref 0 in
  let rec go e =
    match Tbl.find_opt ids e with
    | Some i -> i
    | None ->
      let pair a b =
        let a = go a in
        (a, go b)
      in
      let s =
        match e.node with
        | Const n -> S_const n
        | Var v -> S_var (param v)
        | Add xs -> S_add (Array.of_list (List.map go xs))
        | Mul xs -> S_mul (Array.of_list (List.map go xs))
        | Div (a, b) -> let a, b = pair a b in S_div (a, b)
        | Mod (a, b) -> let a, b = pair a b in S_mod (a, b)
        | Select (c, a, b) ->
          let c = go c in
          let a, b = pair a b in
          S_select (c, a, b)
        | Le (a, b) -> let a, b = pair a b in S_le (a, b)
        | Lt (a, b) -> let a, b = pair a b in S_lt (a, b)
        | Eq (a, b) -> let a, b = pair a b in S_eq (a, b)
        | Isqrt a -> S_isqrt (go a)
      in
      let i = !count in
      incr count;
      slots := s :: !slots;
      Tbl.add ids e i;
      i
  in
  ignore (go e);
  Array.of_list (List.rev !slots)

type column = { values : int array; raised : exn option array }

(* Every slot is computed for every lane, children first.  A lane's
   slot either holds a value or is poisoned with the exception the tree
   walk raises there, and a parent takes the first poison in the tree
   walk's operand order: sums and products left to right, a divisor
   before its zero test and then its dividend, a comparison's right
   operand before its left (OCaml evaluates [eval a <= eval b] right to
   left), a select's condition and then its taken branch only.  That
   first error is what a memoizing tree walk meets, because a node
   computed earlier without error contributes none.  Poisoned lanes hold
   0, so an untaken branch computes but never raises. *)
let run prog ~lanes:n cols =
  let ns = Array.length prog in
  let v = Array.make ns [||] and p = Array.make ns [||] in
  let raised s l =
    let ps = Array.unsafe_get p s in
    if Array.length ps = 0 then None else Array.unsafe_get ps l
  in
  let poison s l ex =
    if Array.length p.(s) = 0 then p.(s) <- Array.make n None;
    p.(s).(l) <- Some ex
  in
  (* Lane [l] of slot [s] is poisoned by child [c]'s poison, if any. *)
  let take s c l =
    match raised c l with
    | Some ex ->
      poison s l ex;
      true
    | None -> false
  in
  let nary s xs ~sum =
    let r = Array.copy v.(xs.(0)) in
    for j = 1 to Array.length xs - 1 do
      let c = v.(xs.(j)) in
      for l = 0 to n - 1 do
        let x = Array.unsafe_get r l and y = Array.unsafe_get c l in
        Array.unsafe_set r l (if sum then x + y else x * y)
      done
    done;
    if Array.exists (fun x -> Array.length p.(x) > 0) xs then
      for l = 0 to n - 1 do
        ignore (Array.exists (fun x -> take s x l) xs)
      done;
    r
  in
  let divide s a b op =
    let va = v.(a) and vb = v.(b) and r = Array.make n 0 in
    for l = 0 to n - 1 do
      if not (take s b l) then begin
        let d = Array.unsafe_get vb l in
        if d = 0 then poison s l Division_by_zero
        else if not (take s a l) then
          Array.unsafe_set r l (op (Array.unsafe_get va l) d)
      end
    done;
    r
  in
  let cmp s a b op =
    let va = v.(a) and vb = v.(b) and r = Array.make n 0 in
    for l = 0 to n - 1 do
      if op (Array.unsafe_get va l) (Array.unsafe_get vb l) then
        Array.unsafe_set r l 1
    done;
    if Array.length p.(a) > 0 || Array.length p.(b) > 0 then
      for l = 0 to n - 1 do
        if not (take s b l) then ignore (take s a l)
      done;
    r
  in
  for s = 0 to ns - 1 do
    v.(s) <-
      (match prog.(s) with
      | S_const c -> Array.make n c
      | S_var k -> cols.(k)
      | S_add xs -> nary s xs ~sum:true
      | S_mul xs -> nary s xs ~sum:false
      | S_div (a, b) -> divide s a b Lego_layout.Domain.floor_div
      | S_mod (a, b) -> divide s a b Lego_layout.Domain.floor_rem
      | S_select (c, a, b) ->
        let vc = v.(c) and va = v.(a) and vb = v.(b) and r = Array.make n 0 in
        for l = 0 to n - 1 do
          if not (take s c l) then
            if Array.unsafe_get vc l <> 0 then begin
              if not (take s a l) then
                Array.unsafe_set r l (Array.unsafe_get va l)
            end
            else if not (take s b l) then
              Array.unsafe_set r l (Array.unsafe_get vb l)
        done;
        r
      | S_le (a, b) -> cmp s a b (fun (x : int) y -> x <= y)
      | S_lt (a, b) -> cmp s a b (fun (x : int) y -> x < y)
      | S_eq (a, b) -> cmp s a b (fun (x : int) y -> x = y)
      | S_isqrt a ->
        let va = v.(a) and r = Array.make n 0 in
        for l = 0 to n - 1 do
          if not (take s a l) then
            match Lego_layout.Domain.int_isqrt (Array.unsafe_get va l) with
            | x -> Array.unsafe_set r l x
            | exception ex -> poison s l ex
        done;
        r)
  done;
  let root = ns - 1 in
  {
    values = v.(root);
    raised =
      (if Array.length p.(root) = 0 then Array.make n None else p.(root));
  }

let evaluator ~params e =
  let index = Hashtbl.create 8 in
  List.iteri (fun k v -> Hashtbl.replace index v k) params;
  let param v =
    match Hashtbl.find_opt index v with
    | Some k -> k
    | None -> invalid_arg ("Expr.evaluator: unbound variable " ^ v)
  in
  let prog = number ~param e in
  fun ~lanes cols -> run prog ~lanes cols

let eval ~env e =
  (* Each variable node gets its own column: a name interned twice (on
     both sides of a unique-table flush) is read twice, to one value. *)
  let cols = ref [] and count = ref 0 in
  let param v =
    cols := [| env v |] :: !cols;
    incr count;
    !count - 1
  in
  let prog = number ~param e in
  let r = run prog ~lanes:1 (Array.of_list (List.rev !cols)) in
  match r.raised.(0) with Some ex -> raise ex | None -> r.values.(0)

(* ---- Rendering ------------------------------------------------------- *)

type syntax = {
  mul : string;
  div : string;
  select : [ `Ternary | `Call of string ];
  isqrt : string * string;
}

let syntax = { mul = "*"; div = " / "; select = `Ternary; isqrt = ("isqrt(", ")") }

(* The precedence a node binds at: an operand position of higher
   precedence parenthesizes it.  Leaves and isqrt never take parens; a
   select does in either spelling. *)
let level e =
  match e.node with
  | Select _ -> 1
  | Le _ | Lt _ | Eq _ -> 3
  | Add _ -> 4
  | Mul _ | Div _ | Mod _ -> 5
  | Const _ | Var _ | Isqrt _ -> max_int

(* A byte buffer that can append a copy of its own earlier bytes, which
   [Buffer] cannot.  Over [Bytes.empty] it only counts: [len] is then
   the length the text will have. *)
type out = { bytes : Bytes.t; mutable len : int }

let add_string o s =
  let n = String.length s in
  if Bytes.length o.bytes > 0 then Bytes.blit_string s 0 o.bytes o.len n;
  o.len <- o.len + n

let add_copy o off n =
  if Bytes.length o.bytes > 0 then Bytes.blit o.bytes off o.bytes o.len n;
  o.len <- o.len + n

(* The counting pass counts [string_of_int n]'s characters instead of
   building it. *)
let add_int o n =
  if Bytes.length o.bytes > 0 then add_string o (string_of_int n)
  else begin
    let rec digits k n =
      if n > -10 && n < 10 then k else digits (k + 1) (n / 10)
    in
    o.len <- o.len + digits (if n < 0 then 2 else 1) n
  end

(* Appends [e]'s text to [o].  Where each compound node's
   unparenthesized text first landed is recorded, and later occurrences
   copy it, so the work is linear in distinct nodes plus output bytes,
   and no per-node string is kept. *)
let emit sx o e =
  let spans : (int * int) Tbl.t = Tbl.create 64 in
  let rec node prec e =
    match e.node with
    | Const n -> add_int o n
    | Var v -> add_string o v
    | _ ->
      let wrap = prec > level e in
      if wrap then add_string o "(";
      (match Tbl.find_opt spans e with
      | Some (off, n) -> add_copy o off n
      | None ->
        let off = o.len in
        body e;
        Tbl.add spans e (off, o.len - off));
      if wrap then add_string o ")"
  and binary a op b ~left ~right =
    node left a;
    add_string o op;
    node right b
  and body e =
    match e.node with
    | Const _ | Var _ -> node 0 e
    | Add [] | Mul [] -> ()
    | Add (x :: xs) ->
      (* A summand is never itself a sum, so every summand binds the
         same at precedence 4 or 5. *)
      node 5 x;
      List.iter
        (fun x ->
          match as_linear_term x with
          | c, factors when c < 0 ->
            add_string o " - ";
            node 5 (of_linear_term (-c, factors))
          | _ ->
            add_string o " + ";
            node 5 x)
        xs
    | Mul (x :: xs) ->
      node 6 x;
      List.iter
        (fun x ->
          add_string o sx.mul;
          node 6 x)
        xs
    | Div (a, b) -> binary a sx.div b ~left:5 ~right:6
    | Mod (a, b) -> binary a " % " b ~left:5 ~right:6
    | Select (c, a, b) -> (
      match sx.select with
      | `Ternary ->
        node 2 c;
        add_string o " ? ";
        binary a " : " b ~left:2 ~right:1
      | `Call f ->
        add_string o f;
        add_string o "(";
        node 0 c;
        add_string o ", ";
        binary a ", " b ~left:0 ~right:0;
        add_string o ")")
    | Le (a, b) -> binary a " <= " b ~left:4 ~right:4
    | Lt (a, b) -> binary a " < " b ~left:4 ~right:4
    | Eq (a, b) -> binary a " == " b ~left:4 ~right:4
    | Isqrt a ->
      add_string o (fst sx.isqrt);
      node 0 a;
      add_string o (snd sx.isqrt)
  in
  node 0 e

(* Measure, then write once: the counting pass sizes the one buffer the
   writing pass fills, and that buffer becomes the string. *)
let render sx e =
  let size = { bytes = Bytes.empty; len = 0 } in
  emit sx size e;
  let o = { bytes = Bytes.create size.len; len = 0 } in
  emit sx o e;
  Bytes.unsafe_to_string o.bytes

let to_string e = render syntax e
let pp ppf e = Format.pp_print_string ppf (to_string e)
