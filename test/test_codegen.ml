(* Tests for template instantiation, the C and Triton printers, CSE and
   the MLIR emitter (validated through the mini-MLIR interpreter). *)

open Lego_layout
open Lego_symbolic
module CG = Lego_codegen
module E = Expr

let check_str = Alcotest.(check string)

(* --- Template engine --------------------------------------------------- *)

let test_template_render () =
  let tpl = "a_ptrs = a_ptr + {{ la_optr }}\nb_ptrs = b_ptr + {{lb_optr}}\n" in
  Alcotest.(check (list string))
    "placeholders" [ "la_optr"; "lb_optr" ]
    (CG.Template.placeholders tpl);
  check_str "rendered" "a_ptrs = a_ptr + X\nb_ptrs = b_ptr + Y\n"
    (CG.Template.render_exn
       ~bindings:[ ("la_optr", "X"); ("lb_optr", "Y") ]
       tpl);
  match CG.Template.render ~bindings:[ ("la_optr", "X") ] tpl with
  | Ok _ -> Alcotest.fail "missing binding not reported"
  | Error msg ->
    Alcotest.(check bool) "names the hole" true
      (Str.string_match (Str.regexp ".*lb_optr.*") msg 0)

let test_template_scanner_edge_cases () =
  (* A marker inside a longer brace run: the scanner must find the inner
     {{x}} rather than give up at the first '{'. *)
  check_str "nested braces" "{X}"
    (CG.Template.render_exn ~bindings:[ ("x", "X") ] "{{{x}}}");
  (* Literal braces that never close stay literal. *)
  check_str "unclosed" "{{x" (CG.Template.render_exn ~bindings:[] "{{x");
  (* A bare opener at end-of-input, and an opener whose marker never
     terminates ("}" is not "}}"), must both survive as literals rather
     than crash the scanner or be half-consumed. *)
  check_str "opener at EOI" "{{" (CG.Template.render_exn ~bindings:[] "{{");
  check_str "opener at EOI after text" "ab{{"
    (CG.Template.render_exn ~bindings:[] "ab{{");
  check_str "single closing brace" "{{ name }"
    (CG.Template.render_exn ~bindings:[ ("name", "V") ] "{{ name }");
  Alcotest.(check (list string)) "unterminated not collected" []
    (CG.Template.placeholders "{{ name }");
  check_str "lone braces" "a {b} c"
    (CG.Template.render_exn ~bindings:[] "a {b} c");
  (* A non-identifier between the braces is not a placeholder. *)
  check_str "bad name stays" "{{bad name}}"
    (CG.Template.render_exn ~bindings:[] "{{bad name}}");
  Alcotest.(check (list string)) "bad name not collected" []
    (CG.Template.placeholders "{{bad name}} {{1x}}");
  (* Adjacent markers and repeats. *)
  check_str "adjacent" "XYX"
    (CG.Template.render_exn
       ~bindings:[ ("a", "X"); ("b", "Y") ]
       "{{a}}{{b}}{{a}}");
  Alcotest.(check (list string))
    "placeholders dedup in order" [ "a"; "b" ]
    (CG.Template.placeholders "{{a}}{{b}}{{a}}")

let test_template_roundtrip () =
  (* Rendering every placeholder with a recognisable token and scanning
     the output must account for every marker: placeholders-compose-
    render sanity over assorted templates. *)
  let templates =
    [
      "no markers at all";
      "{{x}}";
      "lead {{ x }} mid {{y_2}} tail";
      "{{a}}{{a}}{{b}} {{ c }} {";
      "mix {{ok}} {{not ok}} {{_under}}";
    ]
  in
  List.iter
    (fun tpl ->
      let names = CG.Template.placeholders tpl in
      let bindings = List.map (fun n -> (n, "<" ^ n ^ ">")) names in
      let out = CG.Template.render_exn ~bindings tpl in
      List.iter
        (fun (n, v) ->
          let occurs hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%S: %s substituted" tpl n)
            true (occurs out v))
        bindings)
    templates

(* --- C printer --------------------------------------------------------- *)

let test_c_printer () =
  let e = E.(add (mul (const 3) (var "i")) (div (var "j") (const 2))) in
  check_str "C text" "3 * i + j / 2" (CG.C_printer.expr e);
  check_str "define" "int off = 3 * i + j / 2;" (CG.C_printer.define ~name:"off" e);
  let f = CG.C_printer.function_def ~name:"f" ~params:[ "i"; "j" ] e in
  Alcotest.(check bool) "device helper" true
    (Str.string_match (Str.regexp ".*__device__.*") f 0)

let test_c_guard () =
  let env = Range.env_of_list [ ("i", Range.of_extent 10) ] in
  Alcotest.(check (result unit string))
    "nonneg dividend passes" (Ok ())
    (CG.C_printer.guard_nonneg ~env E.(div (var "i") (const 2)));
  (match
     CG.C_printer.guard_nonneg ~env E.(div (sub (var "i") (const 100)) (const 2))
   with
  | Ok () -> Alcotest.fail "negative dividend should be rejected"
  | Error _ -> ())

let test_c_precedence_eval () =
  (* The printed text must re-evaluate to the same value (via a tiny
     re-parse through the MLIR pipeline is overkill; spot-check parens). *)
  let e = E.(mul (add (var "i") (const 1)) (var "k")) in
  check_str "parens kept" "k * (1 + i)" (CG.C_printer.expr e)

(* --- Triton printer ---------------------------------------------------- *)

let test_triton_slices () =
  let dl = Sugar.tiled_view ~group:[ [ 8; 4 ]; [ 16; 32 ] ] () in
  let env =
    Range.env_of_list
      [ ("lpid_m", Range.of_extent 8); ("k", Range.of_extent 4) ]
  in
  let s =
    CG.Triton_printer.slice_offset ~env dl
      [ Fix (E.var "lpid_m"); Fix (E.var "k"); All; All ]
  in
  check_str "tile pointer"
    "tl.arange(0, 32)[None, :] + 32 * k + 128 * tl.arange(0, 16)[:, None] + \
     2048 * lpid_m"
    s

let test_triton_single_slice () =
  let dl = Sugar.tiled_view ~group:[ [ 4; 8 ] ] () in
  let s = CG.Triton_printer.slice_offset dl [ Fix (E.var "row"); All ] in
  check_str "1-D slice has no broadcast suffix" "tl.arange(0, 8) + 8 * row" s

let test_triton_slice_errors () =
  let dl = Sugar.tiled_view ~group:[ [ 2; 2; 2 ] ] () in
  Alcotest.check_raises "3 slices rejected"
    (Invalid_argument
       "Triton_printer.slice_offset: at most two sliced dimensions supported")
    (fun () -> ignore (CG.Triton_printer.slice_offset dl [ All; All; All ]))

(* --- CSE ---------------------------------------------------------------- *)

let test_cse_dedups () =
  let shared = E.(mul (var "i") (const 6)) in
  let instrs, roots =
    CG.Cse.lower [ E.(add shared (var "j")); E.(add shared (const 1)) ]
  in
  Alcotest.(check int) "three instructions (mul shared once)" 3
    (List.length instrs);
  Alcotest.(check int) "two roots" 2 (List.length roots)

let gen_small_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof [ return (E.var "i"); return (E.var "j"); map E.const (int_range 0 9) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            map2 E.add sub sub;
            map2 E.mul sub (map E.const (int_range 1 5));
            map (fun e -> E.div e (E.const 3)) sub;
            map (fun e -> E.md e (E.const 4)) sub;
            map3 E.select (map2 E.lt sub sub) sub sub;
          ])
    3

let prop_cse_eval =
  QCheck2.Test.make ~name:"CSE three-address form evaluates identically"
    ~count:300
    QCheck2.Gen.(triple gen_small_expr (int_bound 50) (int_bound 50))
    (fun (e, iv, jv) ->
      let env = function "i" -> iv | "j" -> jv | _ -> 0 in
      let instrs, roots = CG.Cse.lower [ e ] in
      Reference.cse_eval ~env instrs roots = [ E.eval ~env e ])

(* --- MLIR emitter + interpreter ---------------------------------------- *)

let test_mlir_index_func () =
  let g =
    Group_by.make ~chain:[ Order_by.make [ Gallery.antidiag 9 ] ] [ [ 9; 9 ] ]
  in
  let text = CG.Mlir_gen.layout_apply_func ~name:"off" g in
  let m = Lego_mlirsim.Mparser.parse_module text in
  for i = 0 to 8 do
    for j = 0 to 8 do
      Alcotest.(check (list int))
        (Printf.sprintf "(%d,%d)" i j)
        [ Group_by.apply_ints g [ i; j ] ]
        (Lego_mlirsim.Minterp.run_func m "off" [ Int i; Int j ])
    done
  done

let test_mlir_inv_func () =
  let g = Sugar.tiled_view ~group:[ [ 3; 4 ]; [ 2; 2 ] ] () in
  let text = CG.Mlir_gen.layout_inv_func ~name:"inv" g in
  let m = Lego_mlirsim.Mparser.parse_module text in
  for p = 0 to Group_by.numel g - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "p=%d" p)
      (Group_by.inv_ints g p)
      (Lego_mlirsim.Minterp.run_func m "inv" [ Int p ])
  done

let test_mlir_copy_transpose () =
  let m_ = 6 and n_ = 4 in
  let src_l = Sugar.tiled_view ~group:[ [ m_; n_ ] ] () in
  let dst_l =
    Sugar.tiled_view ~order:[ Sugar.col [ m_; n_ ] ] ~group:[ [ m_; n_ ] ] ()
  in
  let text =
    CG.Mlir_gen.copy_func ~name:"transpose"
      ~src_offset:(Sym.apply src_l) ~dst_offset:(Sym.apply dst_l)
      ~dims:[ m_; n_ ]
  in
  (* The text itself is pinned: loop bounds and the body's constants
     are materialized once each, in first-use order. *)
  check_str "copy_func text md5" "f9f1c708ac7502fb4e16d44a9e10dd95"
    (Digest.to_hex (Digest.string text));
  let m = Lego_mlirsim.Mparser.parse_module text in
  let src = Array.init (m_ * n_) Fun.id in
  let dst = Array.make (m_ * n_) (-1) in
  ignore (Lego_mlirsim.Minterp.run_func m "transpose" [ Mem src; Mem dst ]);
  for i = 0 to m_ - 1 do
    for j = 0 to n_ - 1 do
      Alcotest.(check int)
        (Printf.sprintf "(%d,%d)" i j)
        src.((i * n_) + j)
        dst.((j * m_) + i)
    done
  done

let gen_layout_for_mlir =
  let open QCheck2.Gen in
  let* d1 = oneofl [ 2; 3; 4 ] and* d2 = oneofl [ 2; 3; 4 ] in
  let* sigma = oneofl (Sigma.all 2) in
  let* use_antidiag = bool in
  let piece =
    if use_antidiag && d1 = d2 then Gallery.antidiag d1
    else Piece.reg ~dims:[ d1; d2 ] ~sigma
  in
  return (Group_by.make ~chain:[ Order_by.make [ piece ] ] [ [ d1; d2 ] ])

let prop_mlir_roundtrip =
  QCheck2.Test.make ~name:"MLIR emit/parse/interp == apply_ints" ~count:60
    gen_layout_for_mlir (fun g ->
      let text = CG.Mlir_gen.layout_apply_func ~name:"f" g in
      let m = Lego_mlirsim.Mparser.parse_module text in
      Seq.for_all
        (fun idx ->
          Lego_mlirsim.Minterp.run_func m "f"
            (List.map (fun i -> Lego_mlirsim.Minterp.Int i) idx)
          = [ Group_by.apply_ints g idx ])
        (Shape.indices (Group_by.dims g)))

(* --- MLIR parser errors ------------------------------------------------- *)

let test_mlir_parse_errors () =
  (match Lego_mlirsim.Mparser.parse_module_result "module {\n  garbage\n}" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error msg ->
    Alcotest.(check bool) "position reported" true
      (Str.string_match (Str.regexp "line 2:.*") msg 0));
  match
    Lego_mlirsim.Mparser.parse_module_result
      "module {\n  func.func @f(%i: index) -> (index) {\n    %t = arith.xori \
       %i, %i : index\n    return %t : index\n  }\n}"
  with
  | Ok _ -> Alcotest.fail "unknown op accepted"
  | Error _ -> ()

let test_mlir_interp_errors () =
  let text =
    "module {\n\
    \  func.func @f(%m: memref<?xindex>) {\n\
    \    %c9 = arith.constant 9 : index\n\
    \    %v = memref.load %m[%c9] : memref<?xindex>\n\
    \    return\n\
    \  }\n\
     }"
  in
  let m = Lego_mlirsim.Mparser.parse_module text in
  Alcotest.check_raises "out of bounds"
    (Lego_mlirsim.Minterp.Runtime_error
       "load out of bounds: %m[9] (size 4)")
    (fun () ->
      ignore (Lego_mlirsim.Minterp.run_func m "f" [ Mem (Array.make 4 0) ]))

(* Every backend's text for the layouts of
   {!Test_symbolic.digest_layouts}, pinned. *)
let test_emitted_digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun g ->
      let apply = Sym.apply g in
      List.iter
        (fun s ->
          Buffer.add_string b s;
          Buffer.add_char b '\n')
        [
          CG.C_printer.expr apply;
          CG.Triton_printer.expr apply;
          CG.Mlir_gen.layout_apply_func ~name:"apply" g;
          CG.Mlir_gen.layout_inv_func ~name:"inv" g;
        ])
    Test_symbolic.digest_layouts;
  Test_symbolic.check_digest "C/Triton/MLIR text" ~bytes:961_051
    ~md5:"1de91cbcc8ebe7bf06ac146da3689ed3" (Buffer.contents b)

(* --- DAG walks ----------------------------------------------------------- *)

let prop_renderer_matches_tree_printers =
  QCheck2.Test.make ~name:"renderer = tree printers in all three syntaxes"
    ~count:300 ~print:Reference.expr_to_string Test_symbolic.gen_shared_expr
    (fun e ->
      E.to_string e = Reference.expr_to_string e
      && CG.C_printer.expr e = Reference.c_expr e
      && CG.Triton_printer.expr e = Reference.triton_expr e)

(* The exact-size renderer prints the growing-buffer renderer's bytes in
   every spelling, on every layout's apply and inverse components (the
   gallery, 400 random layouts and 100 algebra terms) and on constants
   of every width. *)
let test_renderer_matches_growing_buffer () =
  let module C = Lego_conform in
  let layouts =
    List.map snd C.Corpus.all
    @ List.init 400 (fun index -> C.Lgen.layout_of_seed ~seed:7 ~index)
    @ List.init 100 (fun index -> C.Lgen.algebra_layout_of_seed ~seed:7 ~index)
  in
  let spelling mul div select isqrt =
    Reference.render { E.mul; div; select; isqrt }
  in
  let spellings =
    [
      ("default", E.to_string, spelling "*" " / " `Ternary ("isqrt(", ")"));
      ( "C",
        CG.C_printer.expr,
        spelling " * " " / " `Ternary ("lego_isqrt(", ")") );
      ( "Triton",
        CG.Triton_printer.expr,
        spelling " * " " // " (`Call "tl.where")
          ("tl.sqrt(", ").to(tl.int32)") );
    ]
  in
  (* Constants at every digit count's edges, as terms and factors. *)
  let constants =
    List.map
      (fun c -> E.(add (mul (const c) (var "x")) (const c)))
      [ 0; 9; 10; -9; -10; 99; 100; -100; max_int; min_int; min_int + 1 ]
  in
  let bytes = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (fun (name, render, reference) ->
          let want = reference e in
          bytes := !bytes + String.length want;
          if render e <> want then
            Alcotest.failf "%s text of %s differs" name want)
        spellings)
    (constants @ List.concat_map (fun g -> Sym.apply g :: Sym.inv g) layouts);
  Alcotest.(check bool) "texts compared" true (!bytes > 0)

(* [random:7:1113]: 153 distinct nodes, 8,389,876 tree nodes. *)
let test_outlier_pinned () =
  let g = Lego_conform.Lgen.layout_of_seed ~seed:7 ~index:1113 in
  let apply = Sym.apply g in
  let pin = Test_symbolic.check_digest in
  pin "C" ~bytes:20_820_206 ~md5:"db6c25c7cd027ac0ee1a02a203aedabc"
    (CG.C_printer.expr apply);
  pin "Triton" ~bytes:26_364_694 ~md5:"6819ecd0e18c75e00b5dc6cc40025bee"
    (CG.Triton_printer.expr apply);
  pin "Expr.to_string" ~bytes:20_809_122
    ~md5:"6661e1e58c41aa62c61db8dc0026efaf" (E.to_string apply);
  let env = Range.env_of_list [ ("p", Range.of_extent (Group_by.numel g)) ] in
  match CG.C_printer.guard_nonneg ~env (List.hd (Sym.inv g)) with
  | Ok () -> Alcotest.fail "the first inv component passed the guard"
  | Error msg ->
    pin "guard message" ~bytes:694_234 ~md5:"809c69eb45b569c2de49ba7993fbcfc6"
      msg

(* 30 levels of x -> select (x < 7) (x + 1) (x / 2): four new nodes a
   level, standing for a tree of about 3^30. *)
let test_deep_sharing () =
  let step x = E.(select (lt x (const 7)) (add x one) (div x (const 2))) in
  let rec nest k e = if k = 0 then e else nest (k - 1) (step e) in
  let e = nest 30 (E.var "x") in
  let env = Range.env_of_list [ ("x", Range.of_extent 100) ] in
  Alcotest.(check (result unit string))
    "guard proves every dividend" (Ok ())
    (CG.C_printer.guard_nonneg ~env e);
  let rec iterate k v =
    if k = 0 then v else iterate (k - 1) (if v < 7 then v + 1 else v / 2)
  in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "eval at x = %d" v)
        (iterate 30 v)
        (E.eval ~env:(fun _ -> v) e))
    [ 0; 6; 7; 99 ];
  (* Each level costs 6 plus three copies of the level below. *)
  Alcotest.(check int) "tree op count" (617_673_396_283_947 - 3) (Cost.ops e)

(* --- Slot-indexed MLIR interpreter --------------------------------------- *)

module Mp = Lego_mlirsim.Mparser
module Mi = Lego_mlirsim.Minterp

(* Values and exceptions of the slot interpreter equal the string-keyed
   reference's on the same text; where both return, the values are the
   expressions' own. *)
let prop_minterp_matches_reference =
  QCheck2.Test.make ~name:"MLIR slot interpreter = string-keyed reference"
    ~count:300
    ~print:(fun (roots, _) ->
      String.concat "; " (List.map Reference.expr_to_string roots))
    QCheck2.Gen.(
      let v = int_range (-8) 8 in
      pair
        (list_size (int_range 1 3) Test_symbolic.gen_shared_expr)
        (list_size (return 4) (triple v v v)))
    (fun (roots, points) ->
      let m =
        Mp.parse_module
          (CG.Mlir_gen.index_func ~name:"f" ~params:[ "x"; "y"; "z" ] roots)
      in
      List.for_all
        (fun (xv, yv, zv) ->
          let args = [ Mi.Int xv; Int yv; Int zv ] in
          let env = function "x" -> xv | "y" -> yv | _ -> zv in
          let outcome run = Test_symbolic.outcome (fun () -> run m "f" args) in
          let got = outcome Mi.run_func in
          got = outcome Reference.run_mlir_func
          &&
          match got with
          | Ok vs -> vs = List.map (E.eval ~env) roots
          | Error _ -> true)
        points)

let test_minterp_copy_matches_reference () =
  let m_ = 6 and n_ = 4 in
  let view order = Sugar.tiled_view ?order ~group:[ [ m_; n_ ] ] () in
  let m =
    Mp.parse_module
      (CG.Mlir_gen.copy_func ~name:"transpose"
         ~src_offset:(Sym.apply (view None))
         ~dst_offset:(Sym.apply (view (Some [ Sugar.col [ m_; n_ ] ])))
         ~dims:[ m_; n_ ])
  in
  let run f =
    let src = Array.init (m_ * n_) (fun k -> k * k mod 97) in
    let dst = Array.make (m_ * n_) (-1) in
    let returned = f m "transpose" [ Mi.Mem src; Mem dst ] in
    (returned, Array.to_list dst)
  in
  Alcotest.(check (pair (list int) (list int)))
    "returns and destination" (run Reference.run_mlir_func) (run Mi.run_func)

(* Names resolve while the text is read.  Regression: each of these
   used to parse, and failed, if at all, only when run. *)
let test_mlir_parse_resolves_names () =
  let func body =
    "module {\n\
    \  func.func @f(%i: index, %m: memref<?xindex>) -> (index) {\n" ^ body
    ^ "  }\n}"
  in
  List.iter
    (fun (what, body, want) ->
      match Mp.parse_module_result (func body) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error msg -> check_str what want msg)
    [
      ( "use before definition",
        "    %t = arith.addi %i, %u : index\n\
        \    %u = arith.constant 1 : index\n\
        \    return %t : index\n",
        "line 3: %u is used before its definition" );
      ( "memref as an index",
        "    %c1 = arith.constant 1 : index\n\
        \    %t = arith.muli %m, %c1 : index\n\
        \    return %t : index\n",
        "line 4: %m is a memref, expected an index" );
      ( "index as a memref",
        "    %t = memref.load %i[%i] : memref<?xindex>\n\
        \    return %t : index\n",
        "line 3: %i is an index, expected a memref" );
      ( "redefinition",
        "    %i = arith.constant 1 : index\n    return %i : index\n",
        "line 3: redefinition of %i" );
      ( "loop value after its loop",
        "    %c1 = arith.constant 1 : index\n\
        \    scf.for %k = %i to %c1 step %c1 {\n\
        \      %t = arith.addi %k, %c1 : index\n\
        \    }\n\
        \    return %t : index\n",
        "line 7: %t is used before its definition" );
    ]

let suite =
  ( "codegen",
    [
      Alcotest.test_case "template render" `Quick test_template_render;
      Alcotest.test_case "template scanner edge cases" `Quick
        test_template_scanner_edge_cases;
      Alcotest.test_case "template placeholders/render round-trip" `Quick
        test_template_roundtrip;
      Alcotest.test_case "C printer" `Quick test_c_printer;
      Alcotest.test_case "C floor-division guard" `Quick test_c_guard;
      Alcotest.test_case "C precedence" `Quick test_c_precedence_eval;
      Alcotest.test_case "Triton 2-D slices" `Quick test_triton_slices;
      Alcotest.test_case "Triton 1-D slice" `Quick test_triton_single_slice;
      Alcotest.test_case "Triton slice errors" `Quick test_triton_slice_errors;
      Alcotest.test_case "CSE dedups" `Quick test_cse_dedups;
      Alcotest.test_case "MLIR index func" `Quick test_mlir_index_func;
      Alcotest.test_case "MLIR inverse func" `Quick test_mlir_inv_func;
      Alcotest.test_case "MLIR scf.for transpose" `Quick
        test_mlir_copy_transpose;
      Alcotest.test_case "MLIR parse errors" `Quick test_mlir_parse_errors;
      Alcotest.test_case "MLIR interp errors" `Quick test_mlir_interp_errors;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_cse_eval; prop_mlir_roundtrip ]
    @ [
        Alcotest.test_case "emitted text pinned over 513 layouts" `Quick
          test_emitted_digest;
        QCheck_alcotest.to_alcotest ~long:false
          prop_renderer_matches_tree_printers;
        Alcotest.test_case "outlier random:7:1113 text and guard pinned" `Quick
          test_outlier_pinned;
        Alcotest.test_case "deep sharing: guard, eval and op count return"
          `Quick test_deep_sharing;
        QCheck_alcotest.to_alcotest ~long:false prop_minterp_matches_reference;
        Alcotest.test_case "MLIR copy loop: slots = string-keyed reference"
          `Quick test_minterp_copy_matches_reference;
        Alcotest.test_case "MLIR names resolve at parse time" `Quick
          test_mlir_parse_resolves_names;
        Alcotest.test_case "exact-size renderer = growing buffer" `Quick
          test_renderer_matches_growing_buffer;
      ] )
