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
  (* A failed side condition surfaces as the prover's positioned error. *)
  expect_error "OrderBy(Row(2,3) o Strided([2],[2])).GroupBy([6])"
    "left-divisibility";
  expect_error "OrderBy(Strided([2],[2])).GroupBy([2])" "bijectivity";
  expect_error "OrderBy(divide(Row(4,2), Strided([3],[1]))).GroupBy([8])" "size";
  expect_error "OrderBy(complement(GenP(antidiag[3,3]), 81)).GroupBy([9,9])"
    "not a strided layout"

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
      let status, out = Test_tune.run_legoc [ layout; "--check"; "-j"; "1" ] in
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
      Alcotest.test_case "arity suffixes optional" `Quick
        test_arity_suffixes_optional;
      Alcotest.test_case "CLI rejects overflowing element counts" `Quick
        test_cli_rejects_overflowing_counts;
    ]
    @ [ QCheck_alcotest.to_alcotest ~long:false prop_roundtrip ] )
