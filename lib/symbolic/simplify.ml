type stats = {
  mutable r1 : int;
  mutable r2 : int;
  mutable r3 : int;
  mutable r4 : int;
  mutable r5 : int;
  mutable extra : int;
  mutable passes : int;
  mutable fuel_exhausted : int;
}

let stats () =
  {
    r1 = 0;
    r2 = 0;
    r3 = 0;
    r4 = 0;
    r5 = 0;
    extra = 0;
    passes = 0;
    fuel_exhausted = 0;
  }

let total s = s.r1 + s.r2 + s.r3 + s.r4 + s.r5 + s.extra

let pp_stats ppf s =
  Format.fprintf ppf
    "r1(mod-split)=%d r2(recombine)=%d r3(div-elim)=%d r4(mod-elim)=%d \
     r5(div-split)=%d extra=%d passes=%d fuel-exhausted=%d"
    s.r1 s.r2 s.r3 s.r4 s.r5 s.extra s.passes s.fuel_exhausted

let terms (e : Expr.t) = match e.node with Add xs -> xs | _ -> [ e ]

(* Split the summands of [e] into [d*q] and [r]: terms whose integer
   coefficient [d] divides (returned already divided) and the rest. *)
let split_multiples d e =
  let quotient, remainder =
    List.partition_map
      (fun t ->
        let coeff, factors = Expr.as_linear_term t in
        if coeff mod d = 0 then
          Left (Expr.of_linear_term (coeff / d, factors))
        else Right t)
      (terms e)
  in
  (quotient, remainder)

(* Rules 3 and 5 (and the unconditional pull-out). *)
let rule_div ?stats env (a : Expr.t) (b : Expr.t) : Expr.t option =
  let bump f = Option.iter f stats in
  if Prover.in_half_open env a b then begin
    bump (fun s -> s.r3 <- s.r3 + 1);
    Some Expr.zero
  end
  else
    match b.node with
    | Expr.Const d when d > 1 -> (
      match split_multiples d a with
      | [], _ -> (
        (* No multiples to pull out; try merging nested divisions. *)
        match a.node with
        | Expr.Div (x, { node = Expr.Const d'; _ }) when d' > 0 ->
          bump (fun s -> s.extra <- s.extra + 1);
          Some (Expr.div x (Expr.const (d * d')))
        | _ -> None)
      | quotient, remainder ->
        let q = Expr.sum quotient and r = Expr.sum remainder in
        if Prover.in_half_open env r b then begin
          bump (fun s -> s.r5 <- s.r5 + 1);
          Some q
        end
        else begin
          (* floor((d*q + r)/d) = q + floor(r/d) for d > 0, any r. *)
          bump (fun s -> s.extra <- s.extra + 1);
          Some (Expr.add q (Expr.div r b))
        end)
    | _ -> None

(* Deliberately-broken rule 4, used only by the conformance harness's
   self-test: when enabled, [x mod d] is eliminated already for
   [0 <= x < 2d] (an off-by-factor-2 side condition).  Never enable
   outside tests; flip it via {!set_test_only_break_rule} so the memo
   caches are flushed.  Atomic so that execution-layer domains spawned
   after the flip observe it (domains must not be running while it is
   flipped: their domain-local memo caches are not flushed). *)
let test_only_break_rule = Atomic.make false

let broken_half_open env (a : Expr.t) (b : Expr.t) =
  Atomic.get test_only_break_rule
  &&
  match b.node with
  | Expr.Const d when d > 1 ->
    let r = Range.of_expr env a in
    r.Range.lo >= 0 && r.Range.hi < 2 * d
  | _ -> false

(* Rules 1 and 4. *)
let rule_mod ?stats env (a : Expr.t) (b : Expr.t) : Expr.t option =
  let bump f = Option.iter f stats in
  if Prover.in_half_open env a b || broken_half_open env a b then begin
    bump (fun s -> s.r4 <- s.r4 + 1);
    Some a
  end
  else
    match b.node with
    | Expr.Const d when d > 1 -> (
      match split_multiples d a with
      | _ :: _, remainder ->
        bump (fun s -> s.r1 <- s.r1 + 1);
        Some (Expr.md (Expr.sum remainder) b)
      | [], _ -> (
        match a.node with
        | Expr.Mod (x, { node = Expr.Const d'; _ })
          when d' > 0 && d' mod d = 0 ->
          (* (x mod d') mod d = x mod d when d | d'. *)
          bump (fun s -> s.extra <- s.extra + 1);
          Some (Expr.md x b)
        | _ -> None))
    | _ -> None

(* Rule 2: a*(x/a) + x mod a -> x (coefficient-scaled form:
   k*a*(x/a) + k*(x mod a) -> k*x). *)
let rule_recombine ?stats env (summands : Expr.t list) : Expr.t list option =
  let bump f = Option.iter f stats in
  let arr = Array.of_list summands in
  let n = Array.length arr in
  let found = ref None in
  let is_div_of x a (f : Expr.t) =
    match f.node with
    | Expr.Div (x', a') -> Expr.equal x x' && Expr.equal a a'
    | _ -> false
  in
  for i = 0 to n - 1 do
    if !found = None then
      match Expr.as_linear_term arr.(i) with
      | k, [ { node = Expr.Mod (x, a); _ } ] ->
        let divisor_ok =
          match a.node with
          | Expr.Const ca -> ca <> 0
          | _ -> Prover.nonzero env a
        in
        if divisor_ok then
          for j = 0 to n - 1 do
            if j <> i && !found = None then begin
              let kj, factors = Expr.as_linear_term arr.(j) in
              let matches =
                match (a.node, factors) with
                | Expr.Const ca, [ f ] -> is_div_of x a f && kj = k * ca
                | _, [ f1; f2 ] ->
                  kj = k
                  && ((Expr.equal f1 a && is_div_of x a f2)
                     || (Expr.equal f2 a && is_div_of x a f1))
                | _ -> false
              in
              if matches then found := Some (i, j, k, x)
            end
          done
      | _ -> ()
  done;
  match !found with
  | None -> None
  | Some (i, j, k, x) ->
    bump (fun s -> s.r2 <- s.r2 + 1);
    let rest =
      List.filteri (fun idx _ -> idx <> i && idx <> j) summands
    in
    Some (Expr.mul (Expr.const k) x :: rest)

(* Decide comparisons from ranges so selects collapse. *)
let rule_compare ?stats env (e : Expr.t) : Expr.t option =
  let bump f = Option.iter f stats in
  let decide yes no =
    if yes then begin
      bump (fun s -> s.extra <- s.extra + 1);
      Some Expr.one
    end
    else if no then begin
      bump (fun s -> s.extra <- s.extra + 1);
      Some Expr.zero
    end
    else None
  in
  match e.node with
  | Expr.Le (a, b) -> decide (Prover.le env a b) (Prover.lt env b a)
  | Expr.Lt (a, b) -> decide (Prover.lt env a b) (Prover.le env b a)
  | Expr.Eq (a, b) ->
    decide
      (Prover.le env a b && Prover.le env b a)
      (Prover.lt env a b || Prover.lt env b a)
  | _ -> None

let rewrite_node ?stats env (e : Expr.t) : Expr.t =
  match e.node with
  | Expr.Div (a, b) -> (
    match rule_div ?stats env a b with Some e' -> e' | None -> e)
  | Expr.Mod (a, b) -> (
    match rule_mod ?stats env a b with Some e' -> e' | None -> e)
  | Expr.Add xs -> (
    match rule_recombine ?stats env xs with
    | Some xs' -> Expr.sum xs'
    | None -> e)
  | Expr.Le _ | Expr.Lt _ | Expr.Eq _ -> (
    match rule_compare ?stats env e with Some e' -> e' | None -> e)
  | _ -> e

let rec rewrite_once ?stats env e =
  let e = Expr.map_children (rewrite_once ?stats env) e in
  rewrite_node ?stats env e

let default_fuel = 64

(* ---- Memoized fixpoint driver ----------------------------------------- *)

(* Rewriting is a pure function of (env, node), so both the single-pass
   action and the full fixpoint result are cached per environment (keyed
   by physical env identity, like the {!Range} and {!Prover} caches) and
   node id.  The memo is bypassed when the caller asks for a [stats]
   record, so reported rule counts stay exact and deterministic. *)

let rewrites : (Range.env, int, Expr.t) Memo.t =
  Memo.create ~name:"Simplify.rewrites" ~envs:8 ~key:(module Expr.Id)
    ~capacity:(1 lsl 16) ~initial:256 ()

(* Full fixpoints at the default fuel. *)
let results : (Range.env, int, Expr.t) Memo.t =
  Memo.create ~name:"Simplify.results" ~envs:8 ~key:(module Expr.Id)
    ~capacity:(1 lsl 16) ~initial:64 ()

type cache_stats = Memo.stats = { hits : int; misses : int; evictions : int }

let cache_stats () =
  let a = Memo.stats rewrites and b = Memo.stats results in
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
  }

let reset_cache_stats () =
  Memo.reset_stats rewrites;
  Memo.reset_stats results

let rec rewrite_memo env tbl (e : Expr.t) =
  match e.node with
  | Expr.Const _ | Expr.Var _ -> e
  | _ -> (
    match Memo.find tbl e.id with
    | Some r -> r
    | None ->
      let e' = Expr.map_children (rewrite_memo env tbl) e in
      let r = rewrite_node env e' in
      Memo.add tbl e.id r;
      r)

let run_fixpoint ?stats ~fuel ~pass e =
  let bump f = Option.iter f stats in
  let left = ref fuel in
  let cur = ref e in
  let continue_ = ref true in
  while !continue_ && !left > 0 do
    decr left;
    bump (fun s -> s.passes <- s.passes + 1);
    let next = pass !cur in
    if Expr.equal next !cur then continue_ := false else cur := next
  done;
  (* Loop left while still making progress: the result is sound but may
     not be a fixpoint. *)
  if !continue_ then bump (fun s -> s.fuel_exhausted <- s.fuel_exhausted + 1);
  !cur

let simplify ?stats ?(fuel = default_fuel) ~env e =
  match stats with
  | Some _ -> run_fixpoint ?stats ~fuel ~pass:(rewrite_once ?stats env) e
  | None ->
    let pass = rewrite_memo env (Memo.table rewrites env) in
    (* Taken at every fuel, so both memos see the same environments. *)
    let fixpoints = Memo.table results env in
    if fuel = default_fuel then
      match Memo.find fixpoints e.id with
      | Some r -> r
      | None ->
        let r = run_fixpoint ~fuel ~pass e in
        Memo.add fixpoints e.id r;
        r
    else run_fixpoint ~fuel ~pass e

let set_test_only_break_rule enabled =
  Atomic.set test_only_break_rule enabled;
  (* Cached fixpoints were computed under the other rule set.  Only the
     calling domain's memo is flushed — flip the flag before spawning
     execution-layer domains, never while they run. *)
  Memo.clear rewrites;
  Memo.clear results
