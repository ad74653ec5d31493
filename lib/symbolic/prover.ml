type stats = { mutable queries : int; mutable proved : int }

let stats () = { queries = 0; proved = 0 }

(* Goal counters are domain-local (like every {!Memo}): each domain of
   the execution layer proves and counts its own goals without
   contention. *)
let counters = Domain.DLS.new_key stats
let global_stats () = Domain.DLS.get counters

let snapshot () =
  let g = global_stats () in
  { queries = g.queries; proved = g.proved }

(* ---- Query cache ------------------------------------------------------ *)

(* Goal verdicts are cached per environment (physical identity, like the
   {!Range.of_expr} cache) and keyed by (goal kind, operand ids) — the
   operands as given, not the normalized difference, so a cache hit skips
   the [Expr.sub] construction entirely.  The key hashes and compares in
   O(1).  A cached verdict still counts as a query in [global_stats] so
   proved/failed totals keep their meaning. *)

module Goal = struct
  type t = int * int * int

  let equal ((g, a, b) : t) (g', a', b') = g = g' && a = a' && b = b'

  (* The odd multiplier spreads [a] over the low bits the table indexes
     by; [b] is most often [Expr.zero]'s id. *)
  let hash (g, a, b) = (((a * 0x2545f491) + b) * 8) + g
end

let memo : (Range.env, Goal.t, bool) Memo.t =
  Memo.create ~name:"Prover.goals" ~envs:8 ~key:(module Goal)
    ~capacity:(1 lsl 16) ~initial:256 ()

let reset () =
  let g = global_stats () in
  g.queries <- 0;
  g.proved <- 0;
  Memo.reset_stats memo

let diff a b = { queries = a.queries - b.queries; proved = a.proved - b.proved }

let record ok =
  let g = global_stats () in
  g.queries <- g.queries + 1;
  if ok then g.proved <- g.proved + 1;
  ok

let goal_nonneg = 0
let goal_positive = 1
let goal_nonzero = 2
let goal_le = 3
let goal_lt = 4

let query goal env (a : Expr.t) (b : Expr.t) decide =
  let tbl = Memo.table memo env in
  let key = (goal, a.id, b.id) in
  match Memo.find tbl key with
  | Some ok -> record ok
  | None ->
    let ok = decide () in
    Memo.add tbl key ok;
    record ok

let nonneg env e =
  query goal_nonneg env e Expr.zero (fun () ->
      (Range.of_expr env e).Range.lo >= 0)

let positive env e =
  query goal_positive env e Expr.zero (fun () ->
      (Range.of_expr env e).Range.lo > 0)

let nonzero env e =
  query goal_nonzero env e Expr.zero (fun () ->
      let r = Range.of_expr env e in
      r.Range.lo > 0 || r.Range.hi < 0)

(* A goal against a constant [c] reads the other side's interval, when
   [|c| + 1] plus the magnitudes of that side's summands stays below
   [Range.pinf]: then no partial sum of the normalized difference
   saturates and negating an interval is exact, so [hi(a) < c] is the
   verdict [lo(c - (a + 1)) >= 0] gives, without building that
   difference.  [Range.of_expr e] has already memoized the summands'
   intervals. *)
let bounded env c (e : Expr.t) =
  let magnitude (r : Range.t) = max (abs r.lo) (abs r.hi) in
  let rec below total = function
    | [] -> true
    | x :: xs ->
      let total = total + magnitude (Range.of_expr env x) in
      total < Range.pinf && below total xs
  in
  if c <= Range.ninf || c >= Range.pinf then None
  else
    let r = Range.of_expr env e in
    let fits =
      match e.node with
      | Add xs -> below (abs c + 1) xs
      | _ -> abs c + 1 + magnitude r < Range.pinf
    in
    if fits then Some r else None

(* [a <= b], or [a < b] when [strict]. *)
let ordered ~strict env (a : Expr.t) (b : Expr.t) =
  let difference () =
    (* Decide on the normalized difference so common terms cancel. *)
    let d =
      if strict then Expr.sub b (Expr.add a Expr.one) else Expr.sub b a
    in
    (Range.of_expr env d).Range.lo >= 0
  in
  match (a.node, b.node) with
  | _, Const c -> (
    match bounded env c a with
    | Some r -> if strict then r.hi < c else r.hi <= c
    | None -> difference ())
  | Const c, _ -> (
    match bounded env c b with
    | Some r -> if strict then r.lo > c else r.lo >= c
    | None -> difference ())
  | _ -> difference ()

let le env a b = query goal_le env a b (fun () -> ordered ~strict:false env a b)
let lt env a b = query goal_lt env a b (fun () -> ordered ~strict:true env a b)

let in_half_open env x a = nonneg env x && lt env x a
