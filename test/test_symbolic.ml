(* Tests for the symbolic engine: normal form, evaluation, ranges, the
   prover, the five Table-1 rules, expansion and the cost model. *)

open Lego_symbolic
module E = Expr
module L = Lego_layout

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let x = E.var "x"
let y = E.var "y"

(* --- Normal form ------------------------------------------------------ *)

let test_constant_folding () =
  check_str "2+3" "5" (E.to_string E.(add (const 2) (const 3)));
  check_str "2*3*x" "6*x" (E.to_string E.(mul (const 2) (mul (const 3) x)));
  check_str "x-x" "0" (E.to_string E.(sub x x));
  check_str "7/2 floor" "3" (E.to_string E.(div (const 7) (const 2)));
  check_str "-7/2 floor" "-4" (E.to_string E.(div (const (-7)) (const 2)));
  check_str "-7 mod 2" "1" (E.to_string E.(md (const (-7)) (const 2)))

let test_like_terms () =
  check_str "x+x" "2*x" (E.to_string E.(add x x));
  check_str "2x+3x-5x" "0" (E.to_string
    E.(add (mul (const 2) x) (add (mul (const 3) x) (mul (const (-5)) x))));
  check_str "x*y + y*x" "2*x*y" (E.to_string E.(add (mul x y) (mul y x)))

let test_distribute_const_over_sum () =
  (* Needed so that differences of equal sums cancel (prover precision). *)
  check_str "-(x+y)+x+y" "0" (E.to_string E.(add (neg (add x y)) (add x y)))

let test_overflow_safe_folding () =
  (* max_int * 2 used to wrap to Const (-2); it must stay symbolic. *)
  (match E.(mul (const max_int) (const 2)).E.node with
  | E.Const n -> Alcotest.failf "max_int * 2 folded to constant %d" n
  | _ -> ());
  (match E.(add (const max_int) (const max_int)).E.node with
  | E.Const n -> Alcotest.failf "max_int + max_int folded to constant %d" n
  | _ -> ());
  (* min_int / -1 is the one constant floor_div that overflows. *)
  (match E.(div (const min_int) (const (-1))).E.node with
  | E.Const n -> Alcotest.failf "min_int / -1 folded to constant %d" n
  | _ -> ());
  (match E.(md (const min_int) (const (-1))).E.node with
  | E.Const n -> Alcotest.failf "min_int mod -1 folded to constant %d" n
  | _ -> ());
  (* Distribution over a sum is skipped when a coefficient would wrap. *)
  let e = E.(mul (const max_int) (add x (const 3))) in
  (match e.E.node with
  | E.Const n -> Alcotest.failf "max_int * (x+3) folded to constant %d" n
  | _ -> ());
  (* In-range folds still happen. *)
  check_str "in-range product" "6" (E.to_string E.(mul (const 2) (const 3)));
  check_str "in-range quotient" "-4"
    (E.to_string E.(div (const (-7)) (const 2)))

let test_hash_consing () =
  (* Structurally equal expressions built separately share one node. *)
  let a = E.(add (mul (const 3) x) y) in
  let b = E.(add (mul (const 3) x) y) in
  Alcotest.(check bool) "physically equal" true (a == b);
  Alcotest.(check bool) "equal" true (E.equal a b);
  let stats = Memo.stats E.memo in
  Alcotest.(check bool) "intern hits recorded" true (stats.Memo.hits > 0);
  Alcotest.(check bool) "intern misses recorded" true (stats.Memo.misses > 0)

let test_div_mod_units () =
  check_str "x/1" "x" (E.to_string E.(div x (const 1)));
  check_str "x mod 1" "0" (E.to_string E.(md x (const 1)));
  check_str "0/x" "0" (E.to_string E.(div E.zero x))

let test_select_fold () =
  check_str "select on true" "x" (E.to_string E.(select E.one x y));
  check_str "select same branches" "x" (E.to_string E.(select y x x));
  check_str "x <= x" "1" (E.to_string E.(le x x));
  check_str "x < x" "0" (E.to_string E.(lt x x))

let test_subst_eval () =
  let e = E.(add (mul (const 3) x) (div y (const 2))) in
  let e' = E.subst [ ("x", E.const 4) ] e in
  check_int "eval after subst" ((3 * 4) + (7 / 2))
    (E.eval ~env:(fun _ -> 7) e');
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (E.vars e)

let test_eval_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (E.eval ~env:(fun _ -> 0) E.(div x (E.var "z"))))

(* --- Ranges ----------------------------------------------------------- *)

let env_xy =
  Range.env_of_list [ ("x", Range.of_extent 8); ("y", Range.of_extent 3) ]

let test_range_arith () =
  let r = Range.of_expr env_xy E.(add (mul (const 3) x) y) in
  check_int "lo" 0 r.Range.lo;
  check_int "hi" ((3 * 7) + 2) r.Range.hi;
  let r = Range.of_expr env_xy E.(md (sub x (const 20)) (const 5)) in
  check_int "mod lo" 0 r.Range.lo;
  check_int "mod hi" 4 r.Range.hi;
  let r = Range.of_expr env_xy E.(div x (const 2)) in
  check_int "div hi" 3 r.Range.hi

let test_range_unknown_var () =
  let r = Range.of_expr Range.empty_env x in
  Alcotest.(check bool) "top" true
    (r.Range.lo <= Range.ninf && r.Range.hi >= Range.pinf)

let test_range_select () =
  let r = Range.of_expr env_xy E.(select (lt x (const 100)) y (const 50)) in
  (* Condition is decidable from ranges: only the then-branch counts. *)
  check_int "select hi" 2 r.Range.hi

(* --- Prover ----------------------------------------------------------- *)

let test_prover () =
  Alcotest.(check bool) "x >= 0" true (Prover.nonneg env_xy x);
  Alcotest.(check bool) "x < 8" true (Prover.lt env_xy x (E.const 8));
  Alcotest.(check bool) "not x < 7" false (Prover.lt env_xy x (E.const 7));
  Alcotest.(check bool) "x <= x + y" true (Prover.le env_xy x E.(add x y));
  Alcotest.(check bool) "3x+y in [0,24)" true
    (Prover.in_half_open env_xy E.(add (mul (const 3) x) y) (E.const 24));
  Alcotest.(check bool) "x - 10 not nonneg" false
    (Prover.nonneg env_xy E.(sub x (const 10)))

(* Regression: [Range.add] took [pinf + ninf] for 0, and the comparisons
   decided from an upper bound at [pinf], which means unbounded, so the
   prover proved [p < pinf + 10] for [p] ranging up to [pinf + 99] and
   simplify rewrote [p / (pinf + 10)] to 0 and [p mod (pinf + 10)] to
   [p]. *)
let test_range_sentinels () =
  let env = Range.env_of_list [ ("p", Range.of_extent (Range.pinf + 100)) ] in
  let p = E.var "p" and d = E.const (Range.pinf + 10) in
  let at v e = E.eval ~env:(fun _ -> v) e in
  let v = Range.pinf + 50 in
  Alcotest.(check bool) "p < pinf + 10 not proved" false (Prover.lt env p d);
  check_int "p / (pinf + 10) at pinf + 50" 1
    (at v (Simplify.simplify ~env (E.div p d)));
  check_int "p mod (pinf + 10) at pinf + 50" 40
    (at v (Simplify.simplify ~env (E.md p d)));
  let r = Range.of_expr env E.(sub (const (Range.pinf + 9)) p) in
  check_int "(pinf + 9) - p is unbounded below" Range.ninf r.Range.lo;
  let r = Range.of_expr env E.(le p (const Range.pinf)) in
  Alcotest.(check (pair int int))
    "p <= pinf undecided" (0, 1) (r.Range.lo, r.Range.hi);
  let r = Range.of_expr env E.(lt (const (Range.pinf + 20)) p) in
  Alcotest.(check (pair int int))
    "pinf + 20 < p undecided" (0, 1) (r.Range.lo, r.Range.hi);
  let big = E.const (Range.pinf + 9) in
  let r = Range.of_expr env E.(eq (add p big) big) in
  Alcotest.(check (pair int int))
    "p + pinf + 9 == pinf + 9 undecided" (0, 1) (r.Range.lo, r.Range.hi);
  (* A saturated lower bound divides as a number, and a divisor without
     an upper bound leaves the remainder without one. *)
  let contains e v = Range.contains (Range.of_expr env e) (at v e) in
  Alcotest.(check bool) "(p + pinf + 9) / 3 bounded by its value" true
    (contains E.(div (add p (const (Range.pinf + 9))) (const 3)) 0);
  Alcotest.(check bool) "p mod (p + 1) bounded by its value" true
    (contains E.(md p (add p one)) v);
  Alcotest.(check bool) "(p - 7) mod (p + 1) bounded by its value" true
    (contains E.(md (sub p (const 7)) (add p one)) v)

(* Queries for the prover's reading of intervals against a constant: a
   sum of [Div]/[Mod]/[Mul]/[Select] terms with coefficients up to
   ±2^61, over variables whose extents reach [pinf + 8] or which are
   unbound ([w] always is), against a constant on the right, on the
   left, on neither side or on both.  A constant side is also asked at
   the other side's bounds and one past them. *)
let gen_bound_query =
  let open QCheck2.Gen in
  let near_pinf = map (fun k -> Range.pinf + k) (int_range (-8) 8) in
  let two61 = 1 lsl 61 in
  let extent =
    oneof [ int_range 1 64; int_range 1 (1 lsl 40); near_pinf ]
  in
  let bindings =
    map3
      (fun ex ey ez ->
        ("x", Range.of_extent ex)
        :: List.filter_map
             (fun (v, e) -> Option.map (fun e -> (v, Range.of_extent e)) e)
             [ ("y", ey); ("z", ez) ])
      extent (opt extent) (opt extent)
  in
  let var = map E.var (oneofl [ "x"; "y"; "z"; "w" ]) in
  let divisor =
    map E.const (oneof [ int_range 1 16; int_range (-16) (-1); near_pinf ])
  in
  let atom =
    oneof
      [
        var;
        map2 E.div var divisor;
        map2 E.md var divisor;
        map2 E.mul var var;
        map3 (fun c a b -> E.select (E.lt c (E.const 8)) a b) var var var;
      ]
  in
  let coeff =
    oneof
      [
        int_range (-8) 8;
        int_range (-two61) two61;
        oneofl [ two61; -two61; two61 - 1; 1 - two61 ];
      ]
  in
  let constant =
    oneof
      [
        int_range (-64) 64;
        near_pinf;
        map (fun k -> Range.ninf + k) (int_range (-8) 8);
        int_range (-two61) two61;
      ]
  in
  let sum =
    map2
      (fun k terms -> E.sum (E.const k :: terms))
      constant
      (list_size (int_range 1 4)
         (map2 (fun k a -> E.mul (E.const k) a) coeff atom))
  in
  let c = map E.const constant in
  let sides =
    oneof [ pair sum c; pair c sum; pair sum sum; pair c c ]
  in
  pair bindings sides

let prop_prover_bound_matches_difference =
  QCheck2.Test.make ~name:"constant-bound le/lt = the built difference"
    ~count:1000
    ~print:(fun (_, (a, b)) ->
      Printf.sprintf "%s vs %s" (E.to_string a) (E.to_string b))
    gen_bound_query
    (fun (bindings, (a, b)) ->
      (* A fresh env per query, so no goal memo answers it. *)
      let fresh () = Range.env_of_list bindings in
      (* Constants at the other side's bounds, and one past them, too. *)
      let near e side =
        let r = Range.of_expr (fresh ()) e in
        List.map side [ r.lo - 1; r.lo; r.hi; r.hi + 1 ]
      in
      let queries =
        match (a.node, b.node) with
        | _, Const _ -> near a (fun k -> (a, E.const k))
        | Const _, _ -> near b (fun k -> (E.const k, b))
        | _ -> []
      in
      List.for_all
        (fun (a, b) ->
          Prover.lt (fresh ()) a b = Reference.prover_lt (fresh ()) a b
          && Prover.le (fresh ()) a b = Reference.prover_le (fresh ()) a b)
        ((a, b) :: queries))

(* [3u + v - 5] has summand magnitudes 21, 2 and 5: against a constant
   [c], the prover reads its interval while [|c| + 1 + 28] stays below
   [pinf], and builds the difference from [|c| = pinf - 29] on.  Both
   give the difference's verdict; only the second interns nodes. *)
let test_prover_bound_guard () =
  let misses () = (Memo.stats E.memo).misses in
  List.iter
    (fun (name, c, left, read) ->
      let u = E.var (name ^ "_u") and v = E.var (name ^ "_v") in
      let env () =
        Range.env_of_list
          [ (name ^ "_u", Range.of_extent 8); (name ^ "_v", Range.of_extent 3) ]
      in
      let s = E.(sum [ mul (const 3) u; v; const (-5) ]) and c = E.const c in
      let a, b = if left then (c, s) else (s, c) in
      List.iter
        (fun (goal, prover, reference) ->
          let before = misses () in
          let verdict = prover (env ()) a b in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s reads the interval" name goal)
            read
            (misses () = before);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s verdict" name goal)
            (reference (env ()) a b) verdict)
        [
          ("lt", Prover.lt, Reference.prover_lt);
          ("le", Prover.le, Reference.prover_le);
        ])
    [
      ("right_in", Range.pinf - 30, false, true);
      ("right_out", Range.pinf - 29, false, false);
      ("left_in", 30 - Range.pinf, true, true);
      ("left_out", 29 - Range.pinf, true, false);
    ]

(* --- Table 1 rules ---------------------------------------------------- *)

let env_qr =
  Range.env_of_list [ ("q", Range.of_extent 100); ("r", Range.of_extent 6) ]

let q = E.var "q"
let r = E.var "r"

let test_rule1_mod_split () =
  let stats = Simplify.stats () in
  let e = E.(md (add (mul (const 6) q) r) (const 6)) in
  check_str "(6q+r) mod 6 -> r" "r"
    (E.to_string (Simplify.simplify ~stats ~env:env_qr e));
  Alcotest.(check bool) "rule 1 fired" true (stats.Simplify.r1 >= 1)

let test_rule2_recombine () =
  let stats = Simplify.stats () in
  let env = Range.env_of_list [ ("x", Range.of_extent 1000) ] in
  let e = E.(add (mul (const 4) (div x (const 4))) (md x (const 4))) in
  check_str "4*(x/4) + x%4 -> x" "x"
    (E.to_string (Simplify.simplify ~stats ~env e));
  check_int "rule 2 fired" 1 stats.Simplify.r2;
  (* Scaled form: 3*a*(x/a) + 3*(x mod a). *)
  let e2 =
    E.(add (mul (const 12) (div x (const 4))) (mul (const 3) (md x (const 4))))
  in
  check_str "scaled recombination" "3*x" (E.to_string (Simplify.simplify ~env e2))

let test_rule3_div_elim () =
  let stats = Simplify.stats () in
  check_str "r/6 -> 0" "0"
    (E.to_string (Simplify.simplify ~stats ~env:env_qr E.(div r (const 6))));
  Alcotest.(check bool) "rule 3 fired" true (stats.Simplify.r3 >= 1)

let test_rule4_mod_elim () =
  let stats = Simplify.stats () in
  check_str "r mod 6 -> r" "r"
    (E.to_string (Simplify.simplify ~stats ~env:env_qr E.(md r (const 6))));
  Alcotest.(check bool) "rule 4 fired" true (stats.Simplify.r4 >= 1)

let test_rule5_div_split () =
  let stats = Simplify.stats () in
  let e = E.(div (add (mul (const 6) q) r) (const 6)) in
  check_str "(6q+r)/6 -> q" "q"
    (E.to_string (Simplify.simplify ~stats ~env:env_qr e));
  Alcotest.(check bool) "rule 5 fired" true (stats.Simplify.r5 >= 1)

let test_pullout_without_bound () =
  (* r unbounded: rule 5 cannot fire, the sound pull-out still splits. *)
  let env = Range.env_of_list [ ("q", Range.of_extent 10) ] in
  let e = E.(div (add (mul (const 6) q) r) (const 6)) in
  check_str "(6q+r)/6 -> q + r/6" "q + r / 6"
    (E.to_string (Simplify.simplify ~env e))

let test_nested_div_mod () =
  let env = Range.env_of_list [ ("x", Range.of_extent 1000) ] in
  check_str "(x/4)/8 -> x/32" "x / 32"
    (E.to_string (Simplify.simplify ~env E.(div (div x (const 4)) (const 8))));
  check_str "(x mod 12) mod 4 -> x mod 4" "x % 4"
    (E.to_string (Simplify.simplify ~env E.(md (md x (const 12)) (const 4))))

let test_fuel_exhaustion_observable () =
  (* (6q + r) mod 6 needs two passes: rule 1 to r mod 6, then rule 4 to r.
     With fuel for a single pass the driver must report exhaustion. *)
  let e = E.(md (add (mul (const 6) q) r) (const 6)) in
  let stats = Simplify.stats () in
  let partial = Simplify.simplify ~stats ~fuel:1 ~env:env_qr e in
  check_str "one pass stops at r mod 6" "r % 6" (E.to_string partial);
  check_int "fuel exhausted once" 1 stats.Simplify.fuel_exhausted;
  check_int "one pass consumed" 1 stats.Simplify.passes;
  let stats = Simplify.stats () in
  let full = Simplify.simplify ~stats ~env:env_qr e in
  check_str "full fuel reaches fixpoint" "r" (E.to_string full);
  check_int "no exhaustion at default fuel" 0 stats.Simplify.fuel_exhausted;
  Alcotest.(check bool) "multiple passes consumed" true
    (stats.Simplify.passes >= 2)

let test_prover_reset_snapshot () =
  Prover.reset ();
  let before = Prover.snapshot () in
  check_int "queries zero after reset" 0 before.Prover.queries;
  Alcotest.(check bool) "goal proves" true (Prover.nonneg env_qr q);
  let after = Prover.snapshot () in
  let delta = Prover.diff after before in
  check_int "one query recorded" 1 delta.Prover.queries;
  check_int "one goal proved" 1 delta.Prover.proved;
  (* The snapshot is a copy, not an alias of the live counters. *)
  ignore (Prover.nonneg env_qr q);
  check_int "snapshot is immutable" 1 after.Prover.queries;
  Prover.reset ();
  check_int "reset zeroes globals" 0 (Prover.global_stats ()).Prover.queries

let test_simplify_memo_consistent () =
  (* The memoized (stats-less) path and the exact (stats) path agree. *)
  let e = E.(div (add (mul (const 6) q) r) (const 6)) in
  let with_stats =
    Simplify.simplify ~stats:(Simplify.stats ()) ~env:env_qr e
  in
  let memo1 = Simplify.simplify ~env:env_qr e in
  let memo2 = Simplify.simplify ~env:env_qr e in
  Alcotest.(check bool) "stats path == memo path" true
    (E.equal with_stats memo1);
  Alcotest.(check bool) "memo is stable" true (memo1 == memo2)

let test_simplify_is_sound_on_samples () =
  (* Differential: simplified expression evaluates identically. *)
  let env = env_qr in
  let exprs =
    [
      E.(md (add (mul (const 6) q) r) (const 6));
      E.(div (add (mul (const 6) q) (add r (const 5))) (const 6));
      E.(add (mul (const 4) (div (add q r) (const 4))) (md (add q r) (const 4)));
      E.(select (lt r (const 6)) q (md q (const 7)));
    ]
  in
  List.iter
    (fun e ->
      let s = Simplify.simplify ~env e in
      for qv = 0 to 99 do
        for rv = 0 to 5 do
          let lookup = function
            | "q" -> qv
            | "r" -> rv
            | v -> Alcotest.failf "unexpected var %s" v
          in
          check_int
            (Printf.sprintf "%s @ q=%d r=%d" (E.to_string e) qv rv)
            (E.eval ~env:lookup e)
            (E.eval ~env:lookup s)
        done
      done)
    exprs

(* --- Expansion and cost ----------------------------------------------- *)

let test_expand () =
  let e = E.(mul (add x (const 1)) (add y (const 2))) in
  check_str "expanded" "2 + y + 2*x + x*y" (E.to_string (Expand.expand e))

let test_cost_model () =
  check_int "ops of x" 0 (Cost.ops x);
  check_int "ops of x+y" 1 (Cost.ops E.(add x y));
  (* One node of each kind over leaves, so each count is that node's
     own charge: n-1 for an n-ary sum, 1 for a cheap ALU op, 3 for
     division, modulo and square root. *)
  let c = E.var "c" in
  List.iter
    (fun (name, charge, e) ->
      (match e.E.node with
      | E.Const _ | E.Var _ -> Alcotest.failf "%s folded to a leaf" name
      | _ -> ());
      check_int name charge (Cost.ops e))
    E.
      [
        ("3-ary sum", 2, sum [ x; y; c ]);
        ("product", 1, mul x y);
        ("select", 1, select c x y);
        ("le", 1, le x y);
        ("lt", 1, lt x y);
        ("eq", 1, eq x y);
        ("div", 3, div x y);
        ("mod", 3, md x y);
        ("isqrt", 3, isqrt x);
      ];
  Alcotest.(check bool) "div costs more than add" true
    (Cost.ops E.(div x y) > Cost.ops E.(add x y));
  let cheap = E.(add x y) and pricey = E.(add (mul x y) (div x y)) in
  Alcotest.(check bool) "cheapest picks cheap" true
    (E.equal (Cost.cheapest [ pricey; cheap ]) cheap)

let test_best_of_expansion () =
  (* (x+y)*3 expands to 3x+3y: same evaluation either way. *)
  let env = env_xy in
  let e = E.(mul (add x y) (const 3)) in
  let best = Cost.best_of_expansion ~env e in
  for xv = 0 to 7 do
    for yv = 0 to 2 do
      let lookup = function "x" -> xv | "y" -> yv | _ -> assert false in
      check_int "expansion choice is sound" (E.eval ~env:lookup e)
        (E.eval ~env:lookup best)
    done
  done

(* --- Symbolic layout application -------------------------------------- *)

let test_sym_apply_tiled () =
  let g = L.Sugar.tiled_view ~group:[ [ 4; 2 ]; [ 2; 3 ] ] () in
  check_str "row-major tiled offset" "i3 + 3*i1 + 6*i2 + 12*i0"
    (E.to_string (Sym.apply g))

let test_sym_inv_grouped () =
  let gm = 2 and npm = 6 and npn = 5 in
  let cl =
    L.Sugar.tiled_view
      ~order:[ L.Sugar.col [ npm / gm; 1 ]; L.Sugar.col [ gm; npn ] ]
      ~group:[ [ npm; npn ] ] ()
  in
  match Sym.inv cl with
  | [ m; n ] ->
    check_str "pid_m" "2*(p / 10) + p % 2" (E.to_string m);
    check_str "pid_n" "p % 10 / 2" (E.to_string n)
  | _ -> Alcotest.fail "rank"

let roundtrip_layouts =
  [
    ("tiled", L.Sugar.tiled_view ~group:[ [ 4; 2 ]; [ 2; 3 ] ] ());
    ( "col tiled",
      L.Sugar.tiled_view
        ~order:[ L.Sugar.col [ 8; 6 ] ]
        ~group:[ [ 4; 2 ]; [ 2; 3 ] ]
        () );
    ( "antidiag",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.antidiag 9 ] ]
        [ [ 9; 9 ] ] );
    ( "morton",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.morton ~d:2 ~bits:3 ] ]
        [ [ 8; 8 ] ] );
    ( "swizzle",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.xor_swizzle ~rows:8 ~cols:8 ] ]
        [ [ 8; 8 ] ] );
  ]

(* The simplified symbolic [apply] against the integer-domain [apply] on
   [samples] seeded random indices, evaluated as the lanes of one
   call: a differential test of engine + simplifier + prover. *)
let check_roundtrip g ~samples =
  let dims = L.Group_by.dims g in
  let names = List.mapi (fun k _ -> Printf.sprintf "i%d" k) dims in
  let state = Random.State.make [| 0x1e60; List.length dims; samples |] in
  let points =
    Array.init samples (fun _ ->
        List.map (fun n -> Random.State.int state n) dims)
  in
  let cols =
    Array.of_list
      (List.mapi (fun d _ -> Array.map (fun idx -> List.nth idx d) points) dims)
  in
  let r = E.evaluator ~params:names (Sym.apply g) ~lanes:samples cols in
  let rec go l =
    if l >= samples then Ok ()
    else begin
      let idx = points.(l) in
      let expect = L.Group_by.apply_ints g idx in
      Option.iter raise r.raised.(l);
      let got = r.values.(l) in
      if got <> expect then
        Error
          (Printf.sprintf
             "symbolic apply disagrees at [%s]: symbolic %d, concrete %d"
             (String.concat ", " (List.map string_of_int idx))
             got expect)
      else go (l + 1)
    end
  in
  go 0

let test_symbolic_matches_concrete () =
  List.iter
    (fun (name, g) ->
      match check_roundtrip g ~samples:200 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    roundtrip_layouts

let test_symbolic_inv_matches_concrete () =
  List.iter
    (fun (name, g) ->
      let exprs = Sym.inv g in
      for p = 0 to min 100 (L.Group_by.numel g - 1) do
        let env v = if v = "p" then p else Alcotest.failf "unexpected %s" v in
        let got = List.map (E.eval ~env) exprs in
        if got <> L.Group_by.inv_ints g p then
          Alcotest.failf "%s: symbolic inv disagrees at %d" name p
      done)
    roundtrip_layouts

(* Property: simplification of random linear/div/mod expressions is
   semantics-preserving over the variable ranges used to justify it. *)
let gen_expr =
  let open QCheck2.Gen in
  let leaf = oneof [ return q; return r; map E.const (int_range 0 9) ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            map2 E.add sub sub;
            map2 E.mul (map E.const (int_range 1 6)) sub;
            map2 E.sub sub sub;
            map (fun e -> E.div e (E.const 6)) sub;
            map (fun e -> E.md e (E.const 6)) sub;
            map (fun e -> E.div e (E.const 4)) sub;
            map (fun e -> E.md e (E.const 4)) sub;
          ])
    3

let prop_simplify_sound =
  QCheck2.Test.make ~name:"simplify preserves semantics" ~count:300
    QCheck2.Gen.(triple gen_expr (int_bound 99) (int_bound 5))
    (fun (e, qv, rv) ->
      let s = Simplify.simplify ~env:env_qr e in
      let lookup = function "q" -> qv | "r" -> rv | _ -> 0 in
      E.eval ~env:lookup e = E.eval ~env:lookup s)

let prop_expand_sound =
  QCheck2.Test.make ~name:"expansion preserves semantics" ~count:300
    QCheck2.Gen.(triple gen_expr (int_bound 99) (int_bound 5))
    (fun (e, qv, rv) ->
      let lookup = function "q" -> qv | "r" -> rv | _ -> 0 in
      E.eval ~env:lookup e = E.eval ~env:lookup (Expand.expand e))

let prop_range_sound =
  QCheck2.Test.make ~name:"range analysis bounds evaluation" ~count:300
    QCheck2.Gen.(triple gen_expr (int_bound 99) (int_bound 5))
    (fun (e, qv, rv) ->
      let lookup = function "q" -> qv | "r" -> rv | _ -> 0 in
      let range = Range.of_expr env_qr e in
      let v = E.eval ~env:lookup e in
      Range.contains range v)

let props = [ prop_simplify_sound; prop_expand_sound; prop_range_sound ]

(* --- Memo ------------------------------------------------------------- *)

(* Test instances, created at module initialisation like the engine's. *)
let memo_envs : (int ref, int, int) Memo.t =
  Memo.create ~name:"test envs" ~envs:8 ~key:(module Int) ~capacity:16
    ~initial:4 ()

let memo_small : (unit, int, int) Memo.t =
  Memo.create ~name:"test capacity" ~key:(module Int) ~capacity:4
    ~initial:4 ()

let memo_stats =
  Alcotest.testable
    (fun ppf (s : Memo.stats) ->
      Format.fprintf ppf "%d hits / %d misses / %d evictions" s.hits s.misses
        s.evictions)
    ( = )

let no_stats = { Memo.hits = 0; misses = 0; evictions = 0 }

let test_memo_drops_oldest_env () =
  Memo.clear memo_envs;
  Memo.reset_stats memo_envs;
  let envs = List.init 9 (fun k -> ref k) in
  let found env = Memo.find (Memo.table memo_envs env) 0 in
  List.iteri
    (fun k env ->
      Memo.add (Memo.table memo_envs env) 0 k;
      check_int
        (Printf.sprintf "evictions after env %d" (k + 1))
        (if k < 8 then 0 else 1)
        (Memo.stats memo_envs).evictions)
    envs;
  Alcotest.(check (option int)) "newest kept" (Some 8) (found (List.nth envs 8));
  Alcotest.(check (option int)) "second oldest kept" (Some 1)
    (found (List.nth envs 1));
  (* The oldest env's table is gone: asking again starts a fresh one,
     which in turn drops the next oldest. *)
  Alcotest.(check (option int)) "oldest dropped" None (found (List.hd envs));
  Alcotest.check memo_stats "counters" { hits = 2; misses = 1; evictions = 2 }
    (Memo.stats memo_envs)

let test_memo_flushes_full_table () =
  Memo.clear memo_small;
  Memo.reset_stats memo_small;
  let tbl = Memo.table memo_small () in
  List.iter (fun k -> Memo.add tbl k k) [ 0; 1; 2; 3 ];
  check_int "full, not flushed" 0 (Memo.stats memo_small).evictions;
  Memo.add tbl 4 4;
  check_int "one flush" 1 (Memo.stats memo_small).evictions;
  Alcotest.(check (option int)) "flushed entry gone" None (Memo.find tbl 0);
  Alcotest.(check (option int)) "new entry kept" (Some 4) (Memo.find tbl 4)

let test_memo_domain_local () =
  Memo.add (Memo.table memo_small ()) 7 7;
  ignore (Memo.find (Memo.table memo_small ()) 7);
  let before = Memo.stats memo_small in
  let seen, found =
    Domain.join
      (Domain.spawn (fun () ->
           let seen = Memo.stats memo_small in
           (seen, Memo.find (Memo.table memo_small ()) 7)))
  in
  Alcotest.check memo_stats "spawned domain starts at zero" no_stats seen;
  Alcotest.(check (option int)) "and with no tables" None found;
  Alcotest.check memo_stats "caller's counters untouched" before
    (Memo.stats memo_small)

let test_memo_all () =
  Alcotest.(check (list string))
    "the engine's instances, in creation order"
    [
      "Expr.intern"; "Range.of_expr"; "Prover.goals"; "Simplify.rewrites";
      "Simplify.results"; "Sym.ranges_of"; "test envs"; "test capacity";
    ]
    (List.map fst (Memo.all ()))

let test_prover_reset_zeroes_memo () =
  let prover () = List.assoc "Prover.goals" (Memo.all ()) in
  let env = Range.env_of_list [ ("z", Range.of_extent 5) ] in
  ignore (Prover.nonneg env (E.var "z"));
  ignore (Prover.nonneg env (E.var "z"));
  Alcotest.(check bool) "memo counted" true ((prover ()).hits > 0);
  Prover.reset ();
  Alcotest.check memo_stats "reset zeroes it" no_stats (prover ())

(* --- Node ids ------------------------------------------------------------ *)

(* Distinct subnodes of [e], in pre-order. *)
let subnodes e =
  let seen = E.Tbl.create 64 and acc = ref [] in
  let rec go (e : E.t) =
    if not (E.Tbl.mem seen e) then begin
      E.Tbl.add seen e ();
      acc := e :: !acc;
      match e.node with
      | Const _ | Var _ -> ()
      | Add xs | Mul xs -> List.iter go xs
      | Div (a, b) | Mod (a, b) | Le (a, b) | Lt (a, b) | Eq (a, b) ->
        go a;
        go b
      | Select (c, a, b) ->
        go c;
        go a;
        go b
      | Isqrt a -> go a
    end
  in
  go e;
  List.rev !acc

(* What the engine says of every distinct subnode of [es] under [env]:
   its text, simplified text, range, two prover goals and op count. *)
let verdicts env es =
  let bound = E.const 1000 in
  List.concat_map subnodes es
  |> List.map (fun s ->
         let r = Range.of_expr env s in
         Printf.sprintf "%s => %s [%d, %d] %b %b %d" (E.to_string s)
           (E.to_string (Simplify.simplify ~env s))
           r.Range.lo r.Range.hi (Prover.le env s bound)
           (Prover.le env E.zero s) (Cost.ops s))
  |> List.sort_uniq String.compare

(* Two layouts over one shape, so one interned env each for apply and
   inv. *)
let tiled = L.Sugar.tiled_view ~group:[ [ 8; 4 ]; [ 16; 32 ] ] ()

let tiled_t =
  L.Sugar.tiled_view
    ~order:[ L.Sugar.col [ 128; 128 ] ]
    ~group:[ [ 8; 4 ]; [ 16; 32 ] ]
    ()

let raw_apply_inv g = (Sym.apply ~simplify:false g, Sym.inv ~simplify:false g)

let layout_verdicts g (apply, inv) =
  verdicts (Sym.ranges_of g) [ apply ] @ verdicts (Sym.inv_ranges g) inv

(* Nodes built by execution-layer workers and returned reach memos keyed
   by id on the calling domain.  The calling domain is fresh and warms
   its memos with its own nodes of [tiled_t] first, then checks the
   workers' nodes of [tiled]; a barrier makes each of the pool's three
   domains build one copy.  With ids drawn per domain, the workers'
   first ids would be the caller's first ids, and its memos would answer
   for the wrong nodes. *)
let test_ids_unique_across_domains () =
  let want = layout_verdicts tiled (raw_apply_inv tiled) in
  let got =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (layout_verdicts tiled_t (raw_apply_inv tiled_t));
           let jobs = 3 and started = Atomic.make 0 in
           let built =
             Lego_exec.Exec.with_pool ~jobs ~oversubscribe:true (fun pool ->
                 Lego_exec.Exec.map ~chunk:1 ~pool (Array.make jobs ())
                   (fun () ->
                     Atomic.incr started;
                     while Atomic.get started < jobs do
                       Domain.cpu_relax ()
                     done;
                     (Domain.self (), raw_apply_inv tiled)))
           in
           let caller = Domain.self () in
           Array.to_list built
           |> List.filter (fun (d, _) -> d <> caller)
           |> List.map (fun (_, es) -> layout_verdicts tiled es)))
  in
  check_int "copies built off the calling domain" 2 (List.length got);
  List.iter
    (Alcotest.(check (list string)) "worker-built nodes: one-domain results"
       want)
    got

(* A full unique table is flushed: nodes rebuilt afterwards are new
   nodes with new ids, so every id-keyed memo misses on them, and
   [equal] falls back to structure. *)
let test_intern_flush_keeps_results () =
  let text () =
    ( E.to_string (Sym.apply tiled),
      List.map E.to_string (Sym.inv tiled) )
  in
  let before = text () in
  let build () = E.(add (mul (const 3) x) (div y (const 7))) in
  let a = build () in
  let flushes () = (Memo.stats E.memo).evictions in
  let flushed = flushes () in
  for k = 1 to 140_000 do
    ignore (E.const (max_int - k))
  done;
  Alcotest.(check bool) "the unique table was flushed" true
    (flushes () > flushed);
  let b = build () in
  Alcotest.(check bool) "rebuilt: a new node" false (a == b);
  Alcotest.(check bool) "rebuilt: equal" true (E.equal a b);
  check_int "rebuilt: compare" 0 (E.compare a b);
  check_str "a - b cancels" "0" (E.to_string (E.sub a b));
  Alcotest.(check (pair string (list string)))
    "apply/inv text unchanged" before (text ())

(* --- Pinned output ---------------------------------------------------- *)

(* The gallery corpus, 200 random layouts and 300 algebra terms. *)
let digest_layouts =
  let module C = Lego_conform in
  List.map snd C.Corpus.all
  @ List.init 200 (fun index -> C.Lgen.layout_of_seed ~seed:42 ~index)
  @ List.init 300 (fun index -> C.Lgen.algebra_layout_of_seed ~seed:7 ~index)

let check_digest what ~bytes ~md5 text =
  check_int (what ^ " bytes") bytes (String.length text);
  check_str (what ^ " md5") md5 (Digest.to_hex (Digest.string text))

let test_symbolic_digest () =
  let b = Buffer.create (1 lsl 21) in
  List.iter
    (fun g ->
      Buffer.add_string b (E.to_string (Sym.apply g));
      Buffer.add_char b '\n';
      List.iter
        (fun e ->
          Buffer.add_string b (E.to_string e);
          Buffer.add_char b '\t')
        (Sym.inv g);
      Buffer.add_char b '\n')
    digest_layouts;
  check_int "layouts" 513 (List.length digest_layouts);
  check_digest "apply/inv text" ~bytes:2_221_196
    ~md5:"0a763947b7071f6a469b47b10969e76f" (Buffer.contents b)

(* --- DAG walks ----------------------------------------------------------- *)

(* Random expressions with heavy sharing: every step combines members of
   a growing pool of subterms — half the time among the four newest — so
   nodes recur throughout the tree.  Ten steps of arity at most three
   keep the tree small enough for the reference tree walks. *)
let gen_shared_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map E.const (int_range (-6) 6); map E.var (oneofl [ "x"; "y"; "z" ]) ]
  in
  let step = triple (int_bound 15) (pair bool nat) (pair nat nat) in
  let build leaves steps =
    let pool = ref (Array.of_list leaves) in
    let pick (recent, k) =
      let n = Array.length !pool in
      if recent then !pool.(n - 1 - (k mod min 4 n)) else !pool.(k mod n)
    in
    List.iter
      (fun (op, a, (b, c)) ->
        let a = pick a and b = pick (true, b) and c = pick (false, c) in
        let e =
          match op with
          | 0 -> E.add a b
          | 1 -> E.sub a b
          | 2 -> E.mul a b
          | 3 -> E.sum [ a; b; c ]
          | 4 -> E.div a b
          | 5 -> E.md a b
          | 6 -> E.select a b c
          | 7 -> E.select (E.lt a b) c (E.div c a)
          | 8 -> E.le a b
          | 9 -> E.eq a b
          | 10 -> E.isqrt a
          | 11 -> E.neg a
          | 12 -> E.product [ a; E.const (-3); b ]
          (* Two operands that may raise different exceptions: the
             evaluation order decides which one escapes. *)
          | 13 -> E.le (E.div a b) (E.isqrt c)
          | 14 -> E.eq (E.isqrt a) (E.md b c)
          | _ -> E.div (E.isqrt a) (E.sub b c)
        in
        pool := Array.append !pool [| e |])
      steps;
    !pool.(Array.length !pool - 1)
  in
  map2 build (list_size (int_range 1 4) leaf) (list_size (int_range 1 10) step)

(* The outcome of an evaluation: its value, or the exception it raised. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception ((Division_by_zero | Invalid_argument _) as ex) ->
    Error (Printexc.to_string ex)

(* Lane [l] of a column evaluation, as an {!outcome}. *)
let lane_outcome (r : E.column) l =
  match r.raised.(l) with
  | Some ex -> Error (Printexc.to_string ex)
  | None -> Ok r.values.(l)

let prop_evaluator_matches_tree_walk =
  QCheck2.Test.make ~name:"prepared evaluator = tree-walk eval" ~count:300
    ~print:(fun (e, _) -> Reference.expr_to_string e)
    QCheck2.Gen.(
      let v = int_range (-8) 8 in
      pair gen_shared_expr (list_size (return 4) (triple v v v)))
    (fun (e, points) ->
      let points = Array.of_list points in
      let col f = Array.map f points in
      let lanes =
        E.evaluator ~params:[ "x"; "y"; "z" ] e ~lanes:(Array.length points)
          [|
            col (fun (x, _, _) -> x); col (fun (_, y, _) -> y);
            col (fun (_, _, z) -> z);
          |]
      in
      let ok = ref true in
      Array.iteri
        (fun l (xv, yv, zv) ->
          let env = function "x" -> xv | "y" -> yv | _ -> zv in
          let want = outcome (fun () -> Reference.eval ~env e) in
          ok :=
            !ok
            && lane_outcome lanes l = want
            && outcome (fun () -> E.eval ~env e) = want)
        points;
      !ok)

let test_select_laziness () =
  let e = E.(select (lt x (const 5)) x (div x (const 0))) in
  let r = E.evaluator ~params:[ "x" ] e ~lanes:2 [| [| 1; 7 |] |] in
  check_int "taken branch at x = 1" 1 r.values.(0);
  Alcotest.(check bool)
    "untaken branch skipped, taken one raises" true
    (r.raised = [| None; Some Division_by_zero |]);
  check_int "eval agrees" 1 (E.eval ~env:(fun _ -> 1) e)

(* Regression: [Sym.inv] built a fresh range env on every call, and the
   simplifier's memos key on env identity, so every inverse started
   cold.  Its env is now interned like [apply]'s. *)
let test_inv_env_interned () =
  let g =
    L.Sugar.tiled_view
      ~order:[ L.Sugar.col [ 3; 1 ]; L.Sugar.col [ 2; 5 ] ]
      ~group:[ [ 6; 5 ] ] ()
  in
  let results () = List.assoc "Simplify.results" (Memo.all ()) in
  let first = Sym.inv g in
  let before = results () in
  let second = Sym.inv g in
  let after = results () in
  Alcotest.(check bool)
    "same expressions" true
    (List.for_all2 E.equal first second);
  Alcotest.(check bool) "one interned env" true
    (Sym.inv_ranges g == Sym.inv_ranges g);
  Alcotest.(check bool)
    (Printf.sprintf "second inv hits (%d)" (after.hits - before.hits))
    true
    (after.hits > before.hits);
  check_int "second inv misses" 0 (after.misses - before.misses)

let suite =
  ( "symbolic",
    [
      Alcotest.test_case "constant folding" `Quick test_constant_folding;
      Alcotest.test_case "overflow-safe constant folding" `Quick
        test_overflow_safe_folding;
      Alcotest.test_case "hash-consing" `Quick test_hash_consing;
      Alcotest.test_case "like terms" `Quick test_like_terms;
      Alcotest.test_case "constant distributes over lone sum" `Quick
        test_distribute_const_over_sum;
      Alcotest.test_case "div/mod units" `Quick test_div_mod_units;
      Alcotest.test_case "select/compare folds" `Quick test_select_fold;
      Alcotest.test_case "subst and eval" `Quick test_subst_eval;
      Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
      Alcotest.test_case "range arithmetic" `Quick test_range_arith;
      Alcotest.test_case "range of unknown vars" `Quick test_range_unknown_var;
      Alcotest.test_case "range of select" `Quick test_range_select;
      Alcotest.test_case "prover goals" `Quick test_prover;
      Alcotest.test_case "rule 1: mod split" `Quick test_rule1_mod_split;
      Alcotest.test_case "rule 2: recombination" `Quick test_rule2_recombine;
      Alcotest.test_case "rule 3: div elimination" `Quick test_rule3_div_elim;
      Alcotest.test_case "rule 4: mod elimination" `Quick test_rule4_mod_elim;
      Alcotest.test_case "rule 5: div split" `Quick test_rule5_div_split;
      Alcotest.test_case "unconditioned pull-out" `Quick
        test_pullout_without_bound;
      Alcotest.test_case "nested div/mod" `Quick test_nested_div_mod;
      Alcotest.test_case "fuel exhaustion observable" `Quick
        test_fuel_exhaustion_observable;
      Alcotest.test_case "prover reset/snapshot" `Quick
        test_prover_reset_snapshot;
      Alcotest.test_case "simplify memo consistent" `Quick
        test_simplify_memo_consistent;
      Alcotest.test_case "simplify sound on exhaustive samples" `Quick
        test_simplify_is_sound_on_samples;
      Alcotest.test_case "expansion" `Quick test_expand;
      Alcotest.test_case "cost model" `Quick test_cost_model;
      Alcotest.test_case "cost-guided expansion choice" `Quick
        test_best_of_expansion;
      Alcotest.test_case "symbolic apply of tiled view" `Quick
        test_sym_apply_tiled;
      Alcotest.test_case "symbolic inv of grouped ordering" `Quick
        test_sym_inv_grouped;
      Alcotest.test_case "symbolic apply == concrete" `Quick
        test_symbolic_matches_concrete;
      Alcotest.test_case "symbolic inv == concrete" `Quick
        test_symbolic_inv_matches_concrete;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
    @ [
        Alcotest.test_case "memo: a 9th environment drops the oldest" `Quick
          test_memo_drops_oldest_env;
        Alcotest.test_case "memo: a full table is flushed" `Quick
          test_memo_flushes_full_table;
        Alcotest.test_case "memo: a spawned domain starts empty" `Quick
          test_memo_domain_local;
        Alcotest.test_case "memo: all lists instances in creation order"
          `Quick test_memo_all;
        Alcotest.test_case "memo: prover reset zeroes its memo" `Quick
          test_prover_reset_zeroes_memo;
        Alcotest.test_case "apply/inv text pinned over 513 layouts" `Quick
          test_symbolic_digest;
        QCheck_alcotest.to_alcotest ~long:false prop_evaluator_matches_tree_walk;
        Alcotest.test_case "evaluator: select evaluates the taken branch only"
          `Quick test_select_laziness;
        Alcotest.test_case "a second inv reuses its interned env" `Quick
          test_inv_env_interned;
        Alcotest.test_case "ids: worker-built nodes on a warm caller" `Quick
          test_ids_unique_across_domains;
        Alcotest.test_case "ids: an intern flush keeps every result" `Quick
          test_intern_flush_keeps_results;
        Alcotest.test_case "range sentinels stay unbounded" `Quick
          test_range_sentinels;
        QCheck_alcotest.to_alcotest ~long:false
          prop_prover_bound_matches_difference;
        Alcotest.test_case "prover: the constant-bound guard's edge" `Quick
          test_prover_bound_guard;
      ] )
