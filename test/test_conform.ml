(* Tests for the differential conformance harness (lib/conform): the C
   expression re-parser, the seeded generator, the four-semantics
   cross-check over the gallery corpus and random layouts, and the
   seeded-bug self-test (a deliberately broken simplifier rule must be
   caught and shrunk). *)

module L = Lego_layout
module Conform = Lego_conform.Conform
module Cexpr = Lego_conform.Cexpr
module Lgen = Lego_conform.Lgen
module Shrink = Lego_conform.Shrink

(* --- Cexpr: C parsing and truncating evaluation ------------------------ *)

let eval_str ?(env = fun v -> failwith ("unbound " ^ v)) src =
  match Cexpr.parse src with
  | Error e -> Alcotest.failf "parse %S: %s" src e
  | Ok t -> Cexpr.eval ~env t

let test_cexpr_truncating_semantics () =
  (* C's / and % truncate toward zero; the algebra's floor semantics
     differ on negatives — that asymmetry is the whole point. *)
  Alcotest.(check int) "-7 / 2 truncates" (-3) (eval_str "-7 / 2");
  Alcotest.(check int) "-7 % 2 truncates" (-1) (eval_str "-7 % 2");
  Alcotest.(check int) "floor differs" (-4)
    (Lego_layout.Domain.floor_div (-7) 2);
  Alcotest.(check int) "7 / 2" 3 (eval_str "7 / 2");
  Alcotest.(check int) "precedence" 7 (eval_str "1 + 2 * 3");
  Alcotest.(check int) "parens" 9 (eval_str "(1 + 2) * 3");
  Alcotest.(check int) "unary minus binds tight" (-5) (eval_str "1 - 2 * 3");
  Alcotest.(check int) "ternary true" 10 (eval_str "1 <= 2 ? 10 : 20");
  Alcotest.(check int) "ternary false" 20 (eval_str "3 <= 2 ? 10 : 20");
  Alcotest.(check int) "nested ternary" 3
    (eval_str "0 ? 1 : 1 == 2 ? 2 : 3");
  Alcotest.(check int) "isqrt" 4 (eval_str "lego_isqrt(17)");
  Alcotest.(check int) "vars" 11
    (eval_str ~env:(function "i0" -> 5 | _ -> 3) "2 * i0 + 1");
  (match Cexpr.parse "1 +" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input should not parse");
  match Cexpr.parse "foo(3)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown function should not parse"

let test_cexpr_matches_printer () =
  (* Round-trip: print an expression with the C printer, re-parse it with
     Cexpr, and evaluate both sides on sample points (all values
     non-negative, where C and floor semantics agree). *)
  let module E = Lego_symbolic.Expr in
  let exprs =
    [
      E.(add (mul (const 3) (var "i")) (div (var "j") (const 2)));
      E.(md (add (var "i") (mul (const 7) (var "j"))) (const 5));
      E.(select (lt (var "i") (const 4)) (var "j") (neg (var "i")));
      E.(isqrt (add (mul (var "i") (var "i")) (var "j")));
      E.(mul (add (var "i") (const 1)) (sub (var "j") (const 9)));
      E.(div (md (var "i") (const 6)) (add (var "j") (const 1)));
    ]
  in
  List.iter
    (fun e ->
      let src = Lego_codegen.C_printer.expr e in
      let t =
        match Cexpr.parse src with
        | Ok t -> t
        | Error m -> Alcotest.failf "reparse %S: %s" src m
      in
      for i = 0 to 9 do
        for j = 0 to 9 do
          let env v =
            match v with
            | "i" -> i
            | "j" -> j
            | v -> Alcotest.failf "unbound %s" v
          in
          Alcotest.(check int)
            (Printf.sprintf "%s at i=%d j=%d" src i j)
            (E.eval ~env e) (Cexpr.eval ~env t)
        done
      done)
    exprs

(* --- Generator ---------------------------------------------------------- *)

let test_generator_deterministic_and_valid () =
  for index = 0 to 39 do
    let g = Lgen.layout_of_seed ~seed:7 ~index in
    let g' = Lgen.layout_of_seed ~seed:7 ~index in
    Alcotest.(check bool)
      (Printf.sprintf "#%d deterministic" index)
      true (L.Group_by.equal g g');
    Alcotest.(check bool)
      (Printf.sprintf "#%d small enough" index)
      true
      (L.Group_by.numel g <= 768);
    match L.Check.layout g with
    | Ok () -> ()
    | Error e -> Alcotest.failf "#%d not a bijection: %s" index e
  done;
  (* Different seeds give different streams (overwhelmingly likely for
     any non-degenerate generator; checked over a whole prefix). *)
  let differs =
    List.exists
      (fun index ->
        not
          (L.Group_by.equal
             (Lgen.layout_of_seed ~seed:1 ~index)
             (Lgen.layout_of_seed ~seed:2 ~index)))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "seeds matter" true differs

(* --- Masked XOR swizzles: generation and shrinking ----------------------- *)

let contains_swizzle g =
  let s = Format.asprintf "%a" L.Group_by.pp g in
  let sub = "swizzlex_m" in
  let n = String.length sub in
  let rec has i =
    i + n <= String.length s && (String.sub s i n = sub || has (i + 1))
  in
  has 0

let test_generator_emits_masked_swizzles () =
  (* The random stream must actually exercise the masked-swizzle family,
     and every generated layout containing one must conform. *)
  let hits = ref [] in
  for index = 0 to 299 do
    let g = Lgen.layout_of_seed ~seed:11 ~index in
    if contains_swizzle g then hits := g :: !hits
  done;
  Alcotest.(check bool) "stream contains masked swizzles" true (!hits <> []);
  List.iter
    (fun g ->
      match (Conform.check_layout ~max_points:256 g).Conform.mismatch with
      | None -> ()
      | Some m ->
        Alcotest.failf "swizzled layout: [%s] %s" m.Conform.stage
          m.Conform.detail)
    !hits

let test_shrink_preserves_swizzle_piece () =
  (* Shrinking a failure whose trigger is the swizzle piece must keep the
     piece while stripping the unrelated OrderBy level and grouping. *)
  let g =
    L.Group_by.make
      ~chain:
        [
          L.Order_by.make
            [ L.Gallery.xor_swizzle_masked ~rows:8 ~cols:8 ~mask:5 ~shift:1 ];
          L.Order_by.make
            [
              L.Piece.reg ~dims:[ 4; 16 ] ~sigma:(L.Sigma.of_one_based [ 2; 1 ]);
            ];
        ]
      [ [ 8; 8 ] ]
  in
  let shrunk = Shrink.minimize contains_swizzle g in
  Alcotest.(check bool) "swizzle survives" true (contains_swizzle shrunk);
  Alcotest.(check int) "unrelated OrderBy dropped" 1
    (List.length (L.Group_by.chain shrunk));
  Alcotest.(check bool) "grouping flattened" true
    (L.Group_by.shapes shrunk = [ [ 64 ] ])

(* --- Cross-check: gallery corpus and random layouts --------------------- *)

let test_gallery_conforms () =
  List.iter
    (fun (name, g) ->
      match (Conform.check_layout g).Conform.mismatch with
      | None -> ()
      | Some m ->
        Alcotest.failf "%s: [%s] %s" name m.Conform.stage m.Conform.detail)
    Lego_conform.Corpus.all

let test_random_layouts_conform () =
  let report =
    Conform.run ~gallery:false ~random:40 ~seed:2026 ~max_points:512 ()
  in
  Alcotest.(check int) "layouts" 40 report.Conform.layouts;
  Alcotest.(check bool) "points covered" true (report.Conform.points > 0);
  match report.Conform.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: [%s] %s" f.Conform.origin f.Conform.mismatch.Conform.stage
      f.Conform.mismatch.Conform.detail

(* --- Seeded-bug self-test ----------------------------------------------- *)

let test_broken_rule_caught_and_shrunk () =
  Lego_symbolic.Simplify.set_test_only_break_rule true;
  Fun.protect
    ~finally:(fun () ->
      Lego_symbolic.Simplify.set_test_only_break_rule false)
    (fun () ->
      let report = Conform.run ~random:40 ~seed:42 () in
      (match report.Conform.failures with
      | [] ->
        Alcotest.fail
          "the deliberately broken mod-elimination rule was not detected"
      | f :: _ ->
        (* The shrunk layout must itself still fail, and shrinking must
           not grow the layout. *)
        Alcotest.(check bool) "shrunk layout still fails" true
          ((Conform.check_layout f.Conform.shrunk).Conform.mismatch <> None);
        let size g =
          List.fold_left
            (fun a o -> a + List.length (L.Order_by.pieces o))
            (List.length (L.Group_by.shapes g))
            (L.Group_by.chain g)
        in
        Alcotest.(check bool) "shrunk no larger" true
          (size f.Conform.shrunk <= size f.Conform.layout);
        (* The printed reproduction must re-parse to the same layout. *)
        let printed = Format.asprintf "%a" L.Group_by.pp f.Conform.shrunk in
        match Lego_lang.Elab.layout_of_string printed with
        | Error e -> Alcotest.failf "shrunk repro %S does not parse: %s" printed e
        | Ok g ->
          Alcotest.(check bool) "repro round-trips" true
            (L.Group_by.equal g f.Conform.shrunk)))

let test_flag_reset_restores_conformance () =
  (* After disabling the broken rule (which flushes the memo caches), the
     same stream must be clean again. *)
  let report = Conform.run ~gallery:true ~random:10 ~seed:42 () in
  Alcotest.(check int) "clean after reset" 0
    (List.length report.Conform.failures)

(* --- Regression: budget accounting -------------------------------------- *)

let test_budget_checked_before_every_layout () =
  (* A zero budget is exhausted before the very first layout — including
     the gallery pass, which an earlier version exempted from the check.
     Nothing may run, and the report must say the budget cut it short. *)
  let report = Conform.run ~gallery:true ~random:5 ~budget_s:0. () in
  Alcotest.(check int) "no layouts checked" 0 report.Conform.layouts;
  Alcotest.(check int) "no points evaluated" 0 report.Conform.points;
  Alcotest.(check bool) "budget_exhausted set" true
    report.Conform.budget_exhausted;
  (* A generous budget on a tiny run must not trip the flag. *)
  let ok = Conform.run ~gallery:false ~random:2 ~budget_s:3600. () in
  Alcotest.(check bool) "budget not exhausted" false
    ok.Conform.budget_exhausted

(* --- Regression: identity-derived sample seeds --------------------------- *)

let with_broken_rule f =
  Lego_symbolic.Simplify.set_test_only_break_rule true;
  Fun.protect
    ~finally:(fun () -> Lego_symbolic.Simplify.set_test_only_break_rule false)
    f

(* --- The per-point check as the oracle ------------------------------------ *)

let outcome_to_string (o : Conform.outcome) =
  Printf.sprintf "points %d, c_checked %b, f2_checked %b, %s" o.points
    o.c_checked o.f2_checked
    (match o.mismatch with
    | None -> "no mismatch"
    | Some m -> Printf.sprintf "%s: %s" m.stage m.detail)

(* Blocks of lanes report exactly what the point-by-point loop reports:
   the same points, legs and first failing check, byte for byte, on
   clean layouts and on the mismatches the broken rule plants. *)
let test_check_matches_reference () =
  let layouts =
    List.map
      (fun i ->
        (Printf.sprintf "random:7:%d" i, Lgen.layout_of_seed ~seed:7 ~index:i))
      (List.init 400 Fun.id @ [ 1336 ])
    @ List.init 100 (fun i ->
          ( Printf.sprintf "algebra:7:%d" i,
            Lgen.algebra_layout_of_seed ~seed:7 ~index:i ))
  in
  let compare_all ~broken =
    List.iter
      (fun (max_points, sample_seed) ->
        List.iter
          (fun (name, g) ->
            let want = Reference.check_layout ~max_points ~sample_seed g in
            let got = Conform.check_layout ~max_points ~sample_seed g in
            if got <> want then
              Alcotest.failf
                "%s (max_points %d, broken rule %b):\n  got  %s\n  want %s" name
                max_points broken (outcome_to_string got)
                (outcome_to_string want))
          layouts)
      [ (2048, 1001); (32, 77) ]
  in
  compare_all ~broken:false;
  with_broken_rule (fun () -> compare_all ~broken:true)

(* A GenP whose integer evaluation divides by zero at index [bad] only:
   [i + 0 * (1 / (i - bad))], which is [i] everywhere else, and whose
   symbolic form folds the product away. *)
let raising_layout ~bad =
  let bij =
    {
      L.Piece.gb_apply =
        (fun (type a) (module D : L.Domain.S with type t = a) (idx : a list) ->
          let i = List.hd idx in
          let quotient = D.div (D.const 1) (D.sub i (D.const bad)) in
          D.add i (D.mul (D.const 0) quotient));
      gb_inv =
        (fun (type a) (module D : L.Domain.S with type t = a) (p : a) -> [ p ]);
    }
  in
  L.Group_by.make
    ~chain:[ L.Order_by.make [ L.Piece.gen ~name:"raise_at" ~dims:[ 16 ] bij ] ]
    [ [ 16 ] ]

let test_exception_reported_at_its_point () =
  let bad = 4 in
  let g = raising_layout ~bad in
  let check label (o : Conform.outcome) ~points =
    Alcotest.(check int) (label ^ ": points") points o.points;
    match o.mismatch with
    | Some { stage = "exception"; detail = "Division_by_zero" } -> ()
    | _ -> Alcotest.failf "%s: %s" label (outcome_to_string o)
  in
  check "exhaustive" (Conform.check_layout g) ~points:(bad + 1);
  (* Seed 10's first twelve draws over [0, 16) are 10 0 0 12 4 …: the
     first draw of index 4 is the fifth point. *)
  check "sampled" (Conform.check_layout ~max_points:12 ~sample_seed:10 g)
    ~points:(bad + 1)


(* Small [max_points] forces sampling on most generated layouts, so these
   tests exercise the seed path rather than the exhaustive one. *)
let sampled_max_points = 32

let failure_key f =
  ( f.Conform.origin,
    f.Conform.repro,
    Format.asprintf "%a" L.Group_by.pp f.Conform.layout,
    Format.asprintf "%a" L.Group_by.pp f.Conform.shrunk,
    f.Conform.mismatch.Conform.stage,
    f.Conform.mismatch.Conform.detail )

let test_sample_seed_independent_of_iteration_order () =
  (* Sample seeds derive from layout identity, so dropping the gallery
     pass must not change which points the random layouts sample — the
     random-origin failures of the two runs must be identical.  (An
     earlier version seeded from a shared counter, so any change in what
     ran before a layout changed its points.) *)
  with_broken_rule (fun () ->
      let with_gallery =
        Conform.run ~gallery:true ~random:25 ~seed:7
          ~max_points:sampled_max_points ()
      in
      let without_gallery =
        Conform.run ~gallery:false ~random:25 ~seed:7
          ~max_points:sampled_max_points ()
      in
      let random_only r =
        List.filter
          (fun f ->
            String.length f.Conform.origin >= 6
            && String.sub f.Conform.origin 0 6 = "random")
          r.Conform.failures
      in
      let a = List.map failure_key (random_only with_gallery) in
      let b = List.map failure_key (random_only without_gallery) in
      Alcotest.(check int) "same random failure count" (List.length a)
        (List.length b);
      List.iter2
        (fun ka kb ->
          Alcotest.(check bool)
            (Printf.sprintf "failure %s identical" (match ka with o, _, _, _, _, _ -> o))
            true (ka = kb))
        a b;
      (* Non-vacuity: at least one of those failures was on a sampled
         (not exhaustively checked) layout, where the seed matters. *)
      let sampled =
        List.exists
          (fun f -> L.Group_by.numel f.Conform.layout > sampled_max_points)
          (random_only with_gallery)
      in
      Alcotest.(check bool) "covers a sampled layout" true sampled)

(* --- Regression: shrinking reproduces from the pure (seed, index) seed --- *)

let test_shrink_reproducible_from_identity_seed () =
  (* Everything in a reported failure — detection, shrinking, the final
     mismatch — must be recomputable from (seed, index) alone.  (An
     earlier version shrank under a {e fresh} sample seed, so the shrunk
     layout could stop failing, or shrink differently, on replay.) *)
  with_broken_rule (fun () ->
      let seed = 7 in
      let report =
        Conform.run ~gallery:false ~random:25 ~seed
          ~max_points:sampled_max_points ()
      in
      let sampled_failures =
        List.filter
          (fun f -> L.Group_by.numel f.Conform.layout > sampled_max_points)
          report.Conform.failures
      in
      Alcotest.(check bool) "at least one sampled failure" true
        (sampled_failures <> []);
      List.iter
        (fun f ->
          let index =
            Scanf.sscanf f.Conform.origin "random layout #%d" (fun i -> i)
          in
          let g = Lgen.layout_of_seed ~seed ~index in
          Alcotest.(check bool) "layout reproduced" true
            (L.Group_by.equal g f.Conform.layout);
          let sample_seed = Conform.random_sample_seed ~seed ~index in
          let check c =
            Conform.check_layout ~max_points:sampled_max_points ~sample_seed c
          in
          Alcotest.(check bool) "mismatch reproduced" true
            ((check g).Conform.mismatch <> None);
          let shrunk =
            Shrink.minimize (fun c -> (check c).Conform.mismatch <> None) g
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: shrunk layout reproduced" f.Conform.origin)
            true
            (L.Group_by.equal shrunk f.Conform.shrunk))
        sampled_failures)

(* --- Determinism across pool sizes --------------------------------------- *)

let same_report r1 r2 =
  (* Structural equality modulo [seconds]. *)
  r1.Conform.layouts = r2.Conform.layouts
  && r1.Conform.points = r2.Conform.points
  && r1.Conform.c_skipped = r2.Conform.c_skipped
  && r1.Conform.budget_exhausted = r2.Conform.budget_exhausted
  && List.map failure_key r1.Conform.failures
     = List.map failure_key r2.Conform.failures

let test_parallel_run_is_deterministic () =
  (* The same corpus, with a seeded failure in it, at -j 1 and -j 4:
     counts, failures, their order, shrunk layouts and repro lines must
     all be bit-identical. *)
  with_broken_rule (fun () ->
      let go jobs gallery =
        Conform.run ~gallery ~random:20 ~seed:7 ~max_points:sampled_max_points
          ~jobs ()
      in
      let r1 = go 1 true and r4 = go 4 true in
      Alcotest.(check bool) "failures found" true (r1.Conform.failures <> []);
      Alcotest.(check bool) "-j 4 == -j 1 (gallery)" true (same_report r1 r4);
      let s1 = go 1 false and s4 = go 4 false in
      Alcotest.(check bool) "-j 4 == -j 1 (no gallery)" true
        (same_report s1 s4))

let test_parallel_run_clean_stream () =
  (* Determinism must also hold on a clean corpus (no failures at all). *)
  let go jobs = Conform.run ~gallery:true ~random:15 ~seed:3 ~jobs () in
  let r1 = go 1 and r4 = go 4 in
  Alcotest.(check int) "no failures" 0 (List.length r1.Conform.failures);
  Alcotest.(check bool) "-j 4 == -j 1" true (same_report r1 r4)

(* --- Counts the harness cannot honour ------------------------------------ *)

(* Regression: [--iters=-3] and [--algebra=-2] exited 125 with an
   uncaught [Invalid_argument("List.init")], and [--max-points 0]
   checked no point yet passed.  Likewise [--budget 0], [--budget=-1]
   and [--budget 0.000001] reported 0 layouts and exited 0: a
   non-positive budget is now a usage error (exit 2), and a run that
   checked no layout fails (exit 1), naming the budget that ran out or
   saying nothing was selected. *)
let test_cli_rejects_bad_counts () =
  List.iter
    (fun (args, code, msg) ->
      let status, out =
        Test_tune.run_legoc (("conform" :: args) @ [ "-j"; "1" ])
      in
      let line = String.concat " " args in
      Alcotest.(check bool)
        (Printf.sprintf "%s exits %d" line code)
        true
        (status = Unix.WEXITED code);
      Alcotest.(check bool)
        (Printf.sprintf "%s prints %S:\n%s" line msg out)
        true
        (Test_tune.contains out msg))
    [
      ([ "--iters=-3" ], 2, "error: --iters must be >= 0");
      ([ "--algebra=-2" ], 2, "error: --algebra must be >= 0");
      ([ "--max-points"; "0" ], 2, "error: --max-points must be >= 1");
      ([ "--budget"; "0" ], 2, "error: --budget must be > 0");
      ([ "--budget=-1" ], 2, "error: --budget must be > 0");
      ( [ "--budget"; "0.000001" ],
        1,
        "error: no layout was checked: the --budget of 1e-06 s ran out first"
      );
      ( [ "--iters"; "0"; "--skip-gallery" ],
        1,
        "error: no layout was checked: none was selected" );
    ];
  let g = snd (List.hd Lego_conform.Corpus.all) in
  Alcotest.check_raises "check_layout ~max_points:0"
    (Invalid_argument "Conform.check_layout: max_points < 1") (fun () ->
      ignore (Conform.check_layout ~max_points:0 g))

let test_cli_rejects_negative_jobs () =
  Test_tune.check_negative_jobs_rejected [ "conform"; "--budget"; "1" ]

let suite =
  ( "conform",
    [
      Alcotest.test_case "C expr: truncating semantics" `Quick
        test_cexpr_truncating_semantics;
      Alcotest.test_case "C expr: printer round-trip" `Quick
        test_cexpr_matches_printer;
      Alcotest.test_case "generator: deterministic, valid, bounded" `Quick
        test_generator_deterministic_and_valid;
      Alcotest.test_case "generator emits masked swizzles" `Quick
        test_generator_emits_masked_swizzles;
      Alcotest.test_case "shrink preserves the swizzle piece" `Quick
        test_shrink_preserves_swizzle_piece;
      Alcotest.test_case "gallery corpus conforms" `Quick test_gallery_conforms;
      Alcotest.test_case "random layouts conform" `Quick
        test_random_layouts_conform;
      Alcotest.test_case "seeded bug is caught and shrunk" `Quick
        test_broken_rule_caught_and_shrunk;
      Alcotest.test_case "flag reset restores conformance" `Quick
        test_flag_reset_restores_conformance;
      Alcotest.test_case "budget checked before every layout" `Quick
        test_budget_checked_before_every_layout;
      Alcotest.test_case "sample seed independent of iteration order" `Quick
        test_sample_seed_independent_of_iteration_order;
      Alcotest.test_case "shrink reproducible from (seed, index)" `Quick
        test_shrink_reproducible_from_identity_seed;
      Alcotest.test_case "parallel run deterministic (seeded failure)" `Quick
        test_parallel_run_is_deterministic;
      Alcotest.test_case "parallel run deterministic (clean stream)" `Quick
        test_parallel_run_clean_stream;
      Alcotest.test_case "CLI rejects counts it cannot honour" `Quick
        test_cli_rejects_bad_counts;
      Alcotest.test_case "check = per-point reference (oracle)" `Quick
        test_check_matches_reference;
      Alcotest.test_case "an exception is reported at its point" `Quick
        test_exception_reported_at_its_point;
      Alcotest.test_case "CLI conform rejects a negative --jobs" `Quick
        test_cli_rejects_negative_jobs;
    ] )
