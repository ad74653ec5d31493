(* Tests for the surface language: lexer, parser, elaboration, and the
   pretty-printer/parser round-trip. *)

open Lego_layout

let parse_ok text =
  match Lego_lang.Elab.layout_of_string text with
  | Ok g -> g
  | Error e -> Alcotest.failf "parse %S failed: %s" text e

let test_lexer () =
  let tokens = Lego_lang.Lexer.tokenize "OrderBy2([6, 6])." in
  Alcotest.(check int) "token count" 10 (List.length tokens);
  (match tokens with
  | { Lego_lang.Token.token = IDENT "OrderBy2"; pos } :: _ ->
    Alcotest.(check int) "line" 1 pos.Lego_lang.Token.line;
    Alcotest.(check int) "col" 1 pos.Lego_lang.Token.col
  | _ -> Alcotest.fail "first token");
  Alcotest.check_raises "bad character"
    (Lego_lang.Lexer.Lex_error
       ({ Lego_lang.Token.line = 1; col = 5 }, "unexpected character '#'"))
    (fun () -> ignore (Lego_lang.Lexer.tokenize "1, 2#"))

let test_parse_fig9 () =
  let g =
    parse_ok
      "OrderBy2(RegP([2,2],[2,1]), GenP(antidiag[3,3])).OrderBy4(RegP([2,3,2,3],[1,3,2,4])).GroupBy2([6,6])"
  in
  Alcotest.(check int) "apply [4,2]" 15 (Group_by.apply_ints g [ 4; 2 ])

let test_parse_sugar () =
  let g = parse_ok "TileOrderBy(Col(6, 4)).TileBy([3,2],[2,2])" in
  Alcotest.(check int) "numel" 24 (Group_by.numel g);
  Alcotest.(check (result unit string)) "bijective" (Ok ()) (Check.layout g);
  (* Equivalent to the programmatic construction. *)
  let direct =
    Sugar.tiled_view ~order:[ Sugar.col [ 6; 4 ] ] ~group:[ [ 3; 2 ]; [ 2; 2 ] ] ()
  in
  Alcotest.(check bool) "same as Sugar.tiled_view" true (Group_by.equal g direct)

let test_parse_row_col () =
  let g = parse_ok "OrderBy(Row(2, 3)).GroupBy([2, 3])" in
  Alcotest.(check int) "row-major" 5 (Group_by.apply_ints g [ 1; 2 ])

let test_parse_errors () =
  let expect_error text fragment =
    match Lego_lang.Elab.layout_of_string text with
    | Ok _ -> Alcotest.failf "%S should not parse" text
    | Error msg ->
      if
        not
          (Str.string_match
             (Str.regexp (".*" ^ Str.quote fragment ^ ".*"))
             msg 0)
      then Alcotest.failf "%S: error %S lacks %S" text msg fragment
  in
  expect_error "GroupBy(6, 6)" "expected";
  expect_error "OrderBy(RegP([2,2],[2,1]))" "must end in GroupBy";
  expect_error "GroupBy3([6,6])" "annotation";
  expect_error "OrderBy(RegP([2,2],[1,1])).GroupBy([2,2])" "duplicate";
  expect_error "OrderBy(GenP(nope[4,4])).GroupBy([4,4])" "no gallery bijection";
  expect_error "OrderBy(Row(2,2)).GroupBy([2,3])" "OrderBy covers 4 elements";
  expect_error "GroupBy([6,6]).GroupBy([6,6])" "only end a chain";
  (* Over-long literals must surface as positioned errors, not escape as
     a bare [Failure] from [int_of_string]. *)
  expect_error "GroupBy([99999999999999999999999999])" "does not fit";
  expect_error "GroupBy([99999999999999999999999999])" "1:10";
  expect_error "OrderBy99999999999999999999999(Row(2,2)).GroupBy([4])"
    "does not fit"

let test_parse_algebra () =
  (* product(a, b) of strided literals: the 2x2 transpose. *)
  let g =
    parse_ok "OrderBy(product(Strided([2],[2]), Strided([2],[1]))).GroupBy([2,2])"
  in
  let col = parse_ok "OrderBy(Col(2,2)).GroupBy([2,2])" in
  Alcotest.(check bool) "product = Col" true (Group_by.equal g col);
  (* The worked divide example: column tiles of the row-major 8x4 image. *)
  let d = parse_ok "OrderBy(divide(Row(8,4), Strided([4],[4]))).GroupBy([32])" in
  Alcotest.(check (result unit string)) "divide is a bijection" (Ok ())
    (Check.layout d);
  Alcotest.(check int) "first tile walks a column" 12 (Group_by.apply_ints d [ 3 ]);
  Alcotest.(check int) "next tile starts at the next column" 1
    (Group_by.apply_ints d [ 4 ]);
  (* Infix composition through a gallery bijection stays a bijection and
     agrees with composing the pieces by hand. *)
  let c = parse_ok "OrderBy(GenP(antidiag[4,4]) o RegP([4,4],[2,1])).GroupBy([4,4])" in
  Alcotest.(check (result unit string)) "composite is a bijection" (Ok ())
    (Check.layout c);
  let anti = Gallery.antidiag 4 in
  let tile = Piece.reg ~dims:[ 4; 4 ] ~sigma:(Sigma.of_one_based [ 2; 1 ]) in
  Shape.indices [ 4; 4 ]
  |> Seq.iter (fun idx ->
         let expect =
           Piece.apply_ints anti
             (Shape.unflatten_ints [ 4; 4 ] (Piece.apply_ints tile idx))
         in
         Alcotest.(check int) "composite apply" expect (Group_by.apply_ints c idx));
  (* Composition is read left-associatively. *)
  let l = parse_ok "OrderBy(Row(4,4) o Col(4,4) o Row(4,4)).GroupBy([4,4])" in
  let r = parse_ok "OrderBy((Row(4,4) o Col(4,4)) o Row(4,4)).GroupBy([4,4])" in
  Alcotest.(check bool) "left associative" true (Group_by.equal l r)

let test_algebra_errors () =
  let expect_error text fragment =
    match Lego_lang.Elab.layout_of_string text with
    | Ok _ -> Alcotest.failf "%S should not elaborate" text
    | Error msg ->
      if
        not
          (Str.string_match
             (Str.regexp (".*" ^ Str.quote fragment ^ ".*"))
             msg 0)
      then Alcotest.failf "%S: error %S lacks %S" text msg fragment
  in
  (* A failed side condition surfaces as the operator's positioned
     error. *)
  expect_error "OrderBy(Row(2,3) o Strided([2],[2])).GroupBy([6])"
    "left-divisibility";
  expect_error "OrderBy(Strided([2],[2])).GroupBy([2])" "bijectivity";
  expect_error "OrderBy(divide(Row(4,2), Strided([3],[1]))).GroupBy([8])" "size";
  expect_error "OrderBy(complement(GenP(antidiag[3,3]), 81)).GroupBy([9,9])"
    "not a strided layout";
  (* Regression: an operand whose image leaves the int range, or a
     product whose codomain does, had its side conditions checked on
     wrapped values, printing "negative stride" (a stride 2^60 peeled
     by 4), "codomain size 0" or negative block sizes.  Each is now
     refused, naming the overflow. *)
  expect_error
    "OrderBy(Strided([8],[1152921504606846976]) o \
     Strided([2],[4])).GroupBy([2])"
    "Algebra.make: the image of (8):(1152921504606846976) exceeds the int \
     range";
  expect_error
    "OrderBy(product(Strided([2147483648],[1]), \
     Strided([4294967296],[1]))).GroupBy([4])"
    "product: unproven side condition \"coverage\": codomain 2147483648 * \
     4294967296 (the size of (2147483648):(1) times the cosize of \
     (4294967296):(1)) exceeds the int range";
  (* Regression: a stride-0 mode keeps the codomain in range while the
     product's element count leaves it; [concat] raised past the
     operator's result type. *)
  expect_error
    "OrderBy(product(Strided([2147483648],[1]), \
     Strided([4294967296],[0]))).GroupBy([4])"
    "product: unproven side condition \"size\": element count 2147483648 * \
     4294967296 (the sizes of (2147483648):(1) and (4294967296):(0)) exceeds \
     the int range";
  expect_error
    "OrderBy(complement(Strided([2,2],[3458764513820540928,\
     3458764513820540928]), 8)).GroupBy([8])"
    "Algebra.make: the image of \
     (2,2):(3458764513820540928,3458764513820540928) exceeds the int range";
  expect_error
    "OrderBy(complement(Strided([2],[2305843009213693952]), \
     4611686018427387903)).GroupBy([2])"
    "Algebra.make: the image of (2):(2305843009213693952) exceeds the int \
     range";
  expect_error
    "OrderBy(Row(2,2) o \
     Strided([2,2],[3458764513820540928,3458764513820540928])).GroupBy([4])"
    "Algebra.make: the image of \
     (2,2):(3458764513820540928,3458764513820540928) exceeds the int range";
  expect_error
    "OrderBy(divide(Row(4,2), \
     Strided([2],[4611686018427387903]))).GroupBy([8])"
    "Algebra.make: the image of (2):(4611686018427387903) exceeds the int \
     range"

(* The README's inadmissible term, byte for byte: exit 1 with one error
   line naming the operator and the failed side condition. *)
let test_cli_algebra_error () =
  let status, out =
    Test_tune.run_legoc
      [ "OrderBy(divide(Row(8,4), Strided([3],[4]))).GroupBy([24])" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "exits 1:\n%s" out)
    true
    (status = Unix.WEXITED 1);
  Alcotest.(check string) "error line"
    "error: divide: unproven side condition \"size\": tile size 3 of \
     (3):(4) must divide the size 32 of (8,4):(4,1)\n"
    out

let test_arity_suffixes_optional () =
  let with_suffix = parse_ok "OrderBy2(Row(6, 6)).GroupBy2([6,6])" in
  let without = parse_ok "OrderBy(Row(6, 6)).GroupBy([6,6])" in
  Alcotest.(check bool) "same layout" true (Group_by.equal with_suffix without)

(* Round-trip: pretty-print then re-parse of random layouts. *)
let gen_layout =
  let open QCheck2.Gen in
  let* d1 = oneofl [ 2; 3; 4 ] and* d2 = oneofl [ 2; 3; 4 ] in
  let dims = [ d1; d2 ] in
  let piece =
    oneof
      [
        (let+ sigma = oneofl (Sigma.all 2) in
         Piece.reg ~dims ~sigma);
        return (Gallery.reverse dims);
        (if d1 = d2 then return (Gallery.antidiag d1)
         else return (Gallery.reverse dims));
      ]
  in
  let* n_orders = int_range 0 2 in
  let+ pieces = list_repeat n_orders piece in
  let chain = List.map (fun p -> Order_by.make [ p ]) pieces in
  Group_by.make ~chain [ dims ]

(* Regression: [legoc LAYOUT --check] printed "0 elements" (or "1
   elements") and "bijection: verified" and exited 0 for a layout whose
   element count overflowed.  It is now an elaboration error: exit 1,
   naming the extents. *)
let test_cli_rejects_overflowing_counts () =
  List.iter
    (fun (layout, msg) ->
      let status, out = Test_tune.run_legoc [ layout; "--check" ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s exits 1:\n%s" layout out)
        true
        (status = Unix.WEXITED 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s prints %S:\n%s" layout msg out)
        true (Test_tune.contains out msg);
      Alcotest.(check bool) (layout ^ " verifies nothing") false
        (Test_tune.contains out "verified"))
    [
      ( "GroupBy([65536,65536,65536,65536])",
        "element count of [65536, 65536, 65536, 65536] exceeds max_int" );
      ( "GroupBy([65536,65536],[65536,65536])",
        "element count of [65536, 65536, 65536, 65536] exceeds max_int" );
      ( "GroupBy([4611686018427387903,4])",
        "element count of [4611686018427387903, 4] exceeds max_int" );
      (* Two pieces whose product wraps to exactly 1. *)
      ( "OrderBy(RegP([4611686018427387903],[1]), \
         RegP([4611686018427387903],[1])).GroupBy([1])",
        "element count of [4611686018427387903, 4611686018427387903] \
         exceeds max_int" );
    ]

(* Regression: a legal element count too large to check exhaustively
   ([max_int], 2⁴⁰) died with an uncaught [Invalid_argument] from
   [Array.make] and exit 125, and a count just below the array limit
   would have tried to allocate its arrays.  It is refused before any
   allocation: exit 1, naming the count and the limit. *)
let test_cli_refuses_huge_check () =
  List.iter
    (fun n ->
      let layout = Printf.sprintf "GroupBy([%d])" n in
      let status, out = Test_tune.run_legoc [ layout; "--check" ] in
      let msg =
        Printf.sprintf "%d elements exceed the exhaustive-check limit of %d" n
          Check.max_elements
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s exits 1:\n%s" layout out)
        true
        (status = Unix.WEXITED 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s prints %S:\n%s" layout msg out)
        true (Test_tune.contains out msg);
      Alcotest.(check bool) (layout ^ " verifies nothing") false
        (Test_tune.contains out "verified"))
    [ max_int; 1 lsl 40 ]

(* Regression: [--apply] with the wrong number of components, an empty
   or unparsable one died with an uncaught [Invalid_argument]/[Failure]
   (exit 125) after the header was printed, and an out-of-range index
   or offset printed a wrong answer ([--apply=4,0] gave 16, [--inv=16]
   gave [4, 0]).  Both are now checked before anything is printed. *)
let test_cli_checks_apply_and_inv () =
  let layout = "GroupBy([4,4])" in
  List.iter
    (fun (arg, msg) ->
      let status, out = Test_tune.run_legoc [ layout; arg ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s exits 2:\n%s" arg out)
        true
        (status = Unix.WEXITED 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s prints %S:\n%s" arg msg out)
        true (Test_tune.contains out msg);
      Alcotest.(check bool) (arg ^ " prints no header") false
        (Test_tune.contains out "layout:"))
    [
      ( "--apply=1",
        "error: --apply \"1\": expected 2 comma-separated integers" );
      ("--apply=1,2,3", "error: --apply \"1,2,3\": expected 2");
      ("--apply=", "error: --apply \"\": expected 2");
      ( "--apply=99999999999999999999,0",
        "error: --apply \"99999999999999999999,0\": expected 2" );
      ( "--apply=4,0",
        "error: --apply \"4,0\": index 4 of dimension 0 is outside [0, 4)" );
      ("--apply=-1,0", "error: --apply \"-1,0\": index -1 of dimension 0");
      ("--apply=0,4", "error: --apply \"0,4\": index 4 of dimension 1");
      ("--inv=16", "error: --inv 16: the offset is outside [0, 16)");
      ("--inv=-1", "error: --inv -1: the offset is outside [0, 16)");
    ];
  List.iter
    (fun (args, line) ->
      let status, out = Test_tune.run_legoc (layout :: args) in
      let what = String.concat " " args in
      Alcotest.(check bool) (what ^ " exits 0") true (status = Unix.WEXITED 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s prints %S:\n%s" what line out)
        true (Test_tune.contains out line))
    [
      ([ "--apply=0,0" ], "apply [0,0] = 0");
      ([ "--apply=3,3" ], "apply [3,3] = 15");
      ([ "--apply=1,2"; "--inv=6" ], "apply [1,2] = 6\ninv 6 = [1, 2]");
      ([ "--inv=15" ], "inv 15 = [3, 3]");
    ]

(* The layout mode runs on one domain: --jobs is an unknown option, a
   usage error (cmdliner's exit code 124), and LEGO_JOBS, which only
   the modes with a --jobs read, cannot fail it. *)
let test_cli_check_takes_no_jobs () =
  let status, out =
    Test_tune.run_legoc [ "GroupBy([4,4])"; "--check"; "--jobs=2" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "--check --jobs=2 exits 124:\n%s" out)
    true
    (status = Unix.WEXITED 124);
  let status, out =
    Test_tune.run_legoc ~env:[ ("LEGO_JOBS", "-1") ]
      [ "GroupBy([4,4])"; "--check" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "LEGO_JOBS=-1 --check exits 0:\n%s" out)
    true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool)
    (Printf.sprintf "LEGO_JOBS=-1 --check verifies:\n%s" out)
    true
    (Test_tune.contains out "bijection: verified")

let prop_roundtrip =
  QCheck2.Test.make ~name:"pp then parse is identity" ~count:200 gen_layout
    (fun g ->
      match Lego_lang.Elab.roundtrip g with
      | Ok g' -> Group_by.equal g g'
      | Error _ -> false)

let suite =
  ( "lang",
    [
      Alcotest.test_case "lexer" `Quick test_lexer;
      Alcotest.test_case "figure 9 notation" `Quick test_parse_fig9;
      Alcotest.test_case "sugar notation" `Quick test_parse_sugar;
      Alcotest.test_case "Row/Col" `Quick test_parse_row_col;
      Alcotest.test_case "errors are reported" `Quick test_parse_errors;
      Alcotest.test_case "algebra operators" `Quick test_parse_algebra;
      Alcotest.test_case "algebra errors" `Quick test_algebra_errors;
      Alcotest.test_case "CLI prints an algebra error" `Quick
        test_cli_algebra_error;
      Alcotest.test_case "arity suffixes optional" `Quick
        test_arity_suffixes_optional;
      Alcotest.test_case "CLI rejects overflowing element counts" `Quick
        test_cli_rejects_overflowing_counts;
      Alcotest.test_case "CLI refuses to check huge counts" `Quick
        test_cli_refuses_huge_check;
      Alcotest.test_case "CLI checks --apply and --inv" `Quick
        test_cli_checks_apply_and_inv;
      Alcotest.test_case "CLI --check takes no --jobs" `Quick
        test_cli_check_takes_no_jobs;
    ]
    @ [ QCheck_alcotest.to_alcotest ~long:false prop_roundtrip ] )
