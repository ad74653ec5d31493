type t = { lo : int; hi : int }

let pinf = max_int / 2
let ninf = -pinf

let clamp v = if v >= pinf then pinf else if v <= ninf then ninf else v

let sat_add a b =
  (* Both inputs are within [ninf, pinf], so the exact sum fits in int. *)
  clamp (a + b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else begin
    (* Guard by division: the product of two 63-bit ints overflows even
       Int64, so never multiply when the magnitude would exceed pinf. *)
    let positive = a > 0 = (b > 0) in
    if abs a > pinf / abs b then if positive then pinf else ninf
    else clamp (a * b)
  end

let top = { lo = ninf; hi = pinf }
let exact n = { lo = clamp n; hi = clamp n }

let make ~lo ~hi =
  if lo > hi then invalid_arg "Range.make: lo > hi";
  { lo = clamp lo; hi = clamp hi }

let of_extent n =
  if n <= 0 then invalid_arg "Range.of_extent: extent must be positive";
  make ~lo:0 ~hi:(n - 1)

let contains r v = (r.lo <= ninf || r.lo <= v) && (r.hi >= pinf || v <= r.hi)

let pp ppf r =
  let bound v =
    if v >= pinf then "+inf" else if v <= ninf then "-inf" else string_of_int v
  in
  Format.fprintf ppf "[%s, %s]" (bound r.lo) (bound r.hi)

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
(* A lower bound at [ninf] and an upper bound at [pinf] are unbounded:
   [pinf + ninf] is no bound at all, so an unbounded side stays
   unbounded instead of being added to. *)
let add a b =
  {
    lo = (if a.lo <= ninf || b.lo <= ninf then ninf else sat_add a.lo b.lo);
    hi = (if a.hi >= pinf || b.hi >= pinf then pinf else sat_add a.hi b.hi);
  }

let mul a b =
  let products =
    [ sat_mul a.lo b.lo; sat_mul a.lo b.hi; sat_mul a.hi b.lo;
      sat_mul a.hi b.hi ]
  in
  {
    lo = List.fold_left min pinf products;
    hi = List.fold_left max ninf products;
  }

let fdiv = Lego_layout.Domain.floor_div

let div a b =
  if b.lo > 0 || b.hi < 0 then begin
    (* Divisor sign is known; floor division is monotone in the dividend,
       and in the divisor for a dividend of known sign, so the corners
       suffice.  An unbounded corner stands for its limit: an infinite
       dividend gives an infinite quotient, and a finite dividend over
       an infinite divisor tends to 0 from one side.  Every other
       endpoint, saturated or not, is a true bound and divides as a
       number. *)
    let quotient (x, x_inf) (y, y_inf) =
      if x_inf then if x > 0 = (y > 0) then pinf else ninf
      else if y_inf then if x = 0 || x > 0 = (y > 0) then 0 else -1
      else fdiv x y
    in
    let lo r = (r.lo, r.lo <= ninf) and hi r = (r.hi, r.hi >= pinf) in
    let quotients =
      [
        quotient (lo a) (lo b); quotient (lo a) (hi b); quotient (hi a) (lo b);
        quotient (hi a) (hi b);
      ]
    in
    {
      lo = clamp (List.fold_left min pinf quotients);
      hi = clamp (List.fold_left max ninf quotients);
    }
  end
  else top (* divisor may be 0: evaluation raises, result unconstrained *)

let rem a b =
  if b.lo > 0 then
    if a.lo >= 0 && a.hi < b.lo then a (* the mod is the identity *)
    else { lo = 0; hi = (if b.hi >= pinf then pinf else b.hi - 1) }
  else if b.hi < 0 then
    { lo = (if b.lo <= ninf then ninf else b.lo + 1); hi = 0 }
  else top

let boolean = { lo = 0; hi = 1 }

(* No verdict is read from an unbounded side: [a.hi = pinf] may exceed
   any [b.lo], and [b.lo = ninf] may lie below any [a.hi]. *)
let le a b =
  if a.hi <= b.lo && a.hi < pinf && b.lo > ninf then exact 1
  else if a.lo > b.hi then exact 0
  else boolean

let lt a b =
  if a.hi < b.lo then exact 1
  else if a.lo >= b.hi && a.lo > ninf && b.hi < pinf then exact 0
  else boolean

let eq a b =
  let known r = r.lo = r.hi && r.lo > ninf && r.hi < pinf in
  if known a && known b && a.lo = b.lo then exact 1
  else if a.hi < b.lo || b.hi < a.lo then exact 0
  else boolean

let isqrt a =
  let hi = if a.hi >= pinf then pinf else Lego_layout.Domain.int_isqrt (max a.hi 0) in
  let lo = if a.lo <= 0 then 0 else Lego_layout.Domain.int_isqrt a.lo in
  { lo; hi }

module StringMap = Map.Make (String)

type env = t StringMap.t

let empty_env = StringMap.empty
let env_of_list l = StringMap.of_seq (List.to_seq l)
let env_add = StringMap.add
let env_find v env = Option.value ~default:top (StringMap.find_opt v env)

(* ---- Memoized range analysis ------------------------------------------ *)

(* [of_expr] results are cached per environment, keyed by physical env
   identity (envs are persistent maps, so [env_add] yields a new identity
   and thereby invalidates).  The 8 most recent envs each own a bounded
   table keyed by node id, so repeated prover side-condition queries over
   shared subtrees are O(1). *)

let memo : (env, int, t) Memo.t =
  Memo.create ~name:"Range.of_expr" ~envs:8 ~key:(module Expr.Id)
    ~capacity:(1 lsl 16) ~initial:256 ()

let rec cached env tbl (e : Expr.t) =
  match e.node with
  | Const n -> exact n
  | Var v -> env_find v env
  | _ -> (
    match Memo.find tbl e.id with
    | Some r -> r
    | None ->
      let r = compute env tbl e in
      Memo.add tbl e.id r;
      r)

and compute env tbl (e : Expr.t) =
  let of_expr = cached env tbl in
  match e.node with
  | Const n -> exact n
  | Var v -> env_find v env
  | Add xs ->
    List.fold_left (fun acc x -> add acc (of_expr x)) (exact 0) xs
  | Mul xs ->
    List.fold_left (fun acc x -> mul acc (of_expr x)) (exact 1) xs
  | Div (a, b) -> div (of_expr a) (of_expr b)
  | Mod (a, b) -> rem (of_expr a) (of_expr b)
  | Select (c, a, b) ->
    let rc = of_expr c in
    if rc.lo > 0 || rc.hi < 0 then of_expr a
    else if rc.lo = 0 && rc.hi = 0 then of_expr b
    else hull (of_expr a) (of_expr b)
  | Le (a, b) -> le (of_expr a) (of_expr b)
  | Lt (a, b) -> lt (of_expr a) (of_expr b)
  | Eq (a, b) -> eq (of_expr a) (of_expr b)
  | Isqrt a -> isqrt (of_expr a)

let of_expr env e = cached env (Memo.table memo env) e
