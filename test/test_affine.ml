(* Tests for the stride derivation of section 3.3 (LEGO -> CuTe/Graphene
   shape:stride descriptions) and for partial-tile padding + masks. *)

open Lego_layout
module A = Lego_symbolic.Affine
module E = Lego_symbolic.Expr
module T = Lego_codegen.Triton_printer

let test_eq6_strides () =
  (* The paper's equation 6: tiling a row-major 6x6 into 3x3 blocks gives
     B: (2,2):(18,3) . (3,3):(6,1) — as a 4-D stride table,
     (2,2,3,3):(18,3,6,1). *)
  let g = Sugar.tiled_view ~group:[ [ 2; 2 ]; [ 3; 3 ] ] () in
  match A.of_layout g with
  | None -> Alcotest.fail "tiled view should be affine"
  | Some t ->
    Alcotest.(check string) "CuTe rendering" "(2, 2, 3, 3):(18, 3, 6, 1)"
      (A.to_cute t);
    Alcotest.(check (result unit string)) "validated" (Ok ()) (A.check g t)

let test_col_major_strides () =
  let g =
    Sugar.tiled_view ~order:[ Sugar.col [ 4; 6 ] ] ~group:[ [ 4; 6 ] ] ()
  in
  match A.of_layout g with
  | None -> Alcotest.fail "column-major is affine"
  | Some t ->
    Alcotest.(check string) "strides" "(4, 6):(1, 4)" (A.to_cute t)

let test_nonaffine_rejected () =
  (* Anti-diagonal and Morton orders lie outside the stride algebra —
     the paper's expressiveness argument. *)
  let antidiag =
    Group_by.make ~chain:[ Order_by.make [ Gallery.antidiag 4 ] ] [ [ 4; 4 ] ]
  in
  Alcotest.(check bool) "antidiag has no strides" true
    (A.of_layout antidiag = None);
  let morton =
    Group_by.make
      ~chain:[ Order_by.make [ Gallery.morton ~d:2 ~bits:2 ] ]
      [ [ 4; 4 ] ]
  in
  Alcotest.(check bool) "morton has no strides" true (A.of_layout morton = None)

let test_linearize () =
  let e = E.(add (mul (const 6) (var "i0")) (add (var "i1") (const 5))) in
  (match A.linearize ~vars:[ "i0"; "i1" ] e with
  | Some (5, [ ("i0", 6); ("i1", 1) ]) -> ()
  | _ -> Alcotest.fail "linearize affine");
  Alcotest.(check bool) "division is not affine" true
    (A.linearize ~vars:[ "i0" ] E.(div (var "i0") (const 2)) = None);
  Alcotest.(check bool) "foreign variable rejected" true
    (A.linearize ~vars:[ "i0" ] (E.var "j") = None)

let prop_affine_strides_correct =
  QCheck2.Test.make ~name:"derived strides reproduce the layout" ~count:100
    QCheck2.Gen.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 4) (int_range 1 4))
    (fun (tm, tk, bm, bk) ->
      let g = Sugar.tiled_view ~group:[ [ tm; tk ]; [ bm; bk ] ] () in
      match A.of_layout g with
      | None -> false
      | Some t -> A.check g t = Ok ())

(* --- Partial tiles and masks ------------------------------------------ *)

let test_padded_view () =
  let view, extents = Sugar.padded_tiled_view ~dims:[ 100; 50 ] ~tile:[ 32; 16 ] in
  Alcotest.(check (list int)) "true extents kept" [ 100; 50 ] extents;
  Alcotest.(check (list int))
    "padded tiled dims" [ 4; 4; 32; 16 ]
    (Group_by.dims view);
  Alcotest.(check (result unit string))
    "padded space is a bijection" (Ok ()) (Check.layout view);
  (* In-bounds offsets match the unpadded row-major space padded to 128x64. *)
  Alcotest.(check int) "offset of (33, 17)" ((33 * 64) + 17)
    (Group_by.apply_ints view [ 33 / 32; 17 / 16; 33 mod 32; 17 mod 16 ])

let test_slice_mask () =
  let _view, extents = Sugar.padded_tiled_view ~dims:[ 100; 50 ] ~tile:[ 32; 16 ] in
  let group = [ [ 4; 4 ]; [ 32; 16 ] ] in
  let mask =
    T.slice_mask ~group ~extents
      [ T.Fix (E.var "pid_m"); T.Fix (E.var "k"); T.All; T.All ]
  in
  match mask with
  | None -> Alcotest.fail "padding requires a mask"
  | Some m ->
    List.iter
      (fun fragment ->
        if not (Str.string_match (Str.regexp (".*" ^ Str.quote fragment ^ ".*")) m 0)
        then Alcotest.failf "mask %S lacks %S" m fragment)
      [ "< 100"; "< 50"; "tl.arange(0, 32)[:, None]"; "tl.arange(0, 16)[None, :]"; " & " ]

let test_no_mask_when_divisible () =
  let _view, extents = Sugar.padded_tiled_view ~dims:[ 128; 64 ] ~tile:[ 32; 16 ] in
  Alcotest.(check bool) "no padding, no mask" true
    (T.slice_mask ~group:[ [ 4; 4 ]; [ 32; 16 ] ] ~extents
       [ T.Fix (E.var "pid_m"); T.Fix (E.var "k"); T.All; T.All ]
    = None)

let test_mask_semantics () =
  (* The mask expression evaluated over all tile cells is exactly the
     in-bounds predicate. *)
  let dims = [ 10; 7 ] in
  let coord_ok pid_m pid_n tm tn =
    let i = (pid_m * 4) + tm and j = (pid_n * 4) + tn in
    i < List.nth dims 0 && j < List.nth dims 1
  in
  (* Rebuild the mask as an expression (what slice_mask renders) and
     compare against the predicate. *)
  let mask_expr =
    E.(
      mul
        (lt
           (add (mul (const 4) (var "pid_m")) (var "tm"))
           (const (List.nth dims 0)))
        (lt
           (add (mul (const 4) (var "pid_n")) (var "tn"))
           (const (List.nth dims 1))))
  in
  for pid_m = 0 to 2 do
    for pid_n = 0 to 1 do
      for tm = 0 to 3 do
        for tn = 0 to 3 do
          let env = function
            | "pid_m" -> pid_m
            | "pid_n" -> pid_n
            | "tm" -> tm
            | "tn" -> tn
            | _ -> 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "(%d,%d,%d,%d)" pid_m pid_n tm tn)
            (coord_ok pid_m pid_n tm tn)
            (E.eval ~env mask_expr <> 0)
        done
      done
    done
  done

(* --- slice_mask refactor: byte identity vs the list-based original ----- *)

(* The original (pre-array) [slice_mask], kept verbatim as a reference:
   the production version replaced its per-dimension [List.nth] walks
   with arrays, and this test pins the refactor to byte-identical
   output.  Internals ([components_of], [render_with_aranges]) are
   re-embedded here since the printer does not export them. *)
module Reference = struct
  module E = Lego_symbolic.Expr
  module R = Lego_symbolic.Range

  let components_of indices dims =
    let slice_count = ref 0 in
    let components, slice_info =
      List.fold_left2
        (fun (components, info) index extent ->
          match index with
          | T.Fix e -> (e :: components, info)
          | T.All ->
            let k = !slice_count in
            incr slice_count;
            let v = T.arange_var k in
            (E.var v :: components, (v, extent) :: info))
        ([], []) indices dims
    in
    (List.rev components, List.rev slice_info)

  let broadcast ~nslices k =
    if nslices = 1 then "" else if k = 0 then "[:, None]" else "[None, :]"

  let replace_all ~sub ~by text =
    let sn = String.length sub and n = String.length text in
    if sn = 0 then text
    else begin
      let buf = Buffer.create n in
      let i = ref 0 in
      while !i <= n - sn do
        if String.sub text !i sn = sub then begin
          Buffer.add_string buf by;
          i := !i + sn
        end
        else begin
          Buffer.add_char buf text.[!i];
          incr i
        end
      done;
      Buffer.add_string buf (String.sub text !i (n - !i));
      Buffer.contents buf
    end

  let render_with_aranges ~slice_info text =
    let nslices = List.length slice_info in
    List.fold_left
      (fun text (k, (v, extent)) ->
        replace_all ~sub:v
          ~by:
            (Printf.sprintf "tl.arange(0, %d)%s" extent (broadcast ~nslices k))
          text)
      text
      (List.mapi (fun k b -> (k, b)) slice_info)

  let slice_mask ?(env = R.empty_env) ~group ~extents indices =
    let dims = List.concat group in
    let d = List.length extents in
    let components, slice_info = components_of indices dims in
    let env =
      List.fold_left
        (fun env (v, extent) -> R.env_add v (R.of_extent extent) env)
        env slice_info
    in
    let q = List.length group in
    let coord k =
      let level_extents = List.map (fun level -> List.nth level k) group in
      let level_components =
        List.init q (fun h -> List.nth components ((h * d) + k))
      in
      Lego_layout.Shape.flatten
        (module Lego_symbolic.Sym.Dom)
        level_extents level_components
    in
    let terms =
      List.filteri
        (fun k _ ->
          let padded_extent =
            List.fold_left (fun acc level -> acc * List.nth level k) 1 group
          in
          padded_extent > List.nth extents k)
        (List.init d Fun.id)
      |> List.map (fun k ->
             let guard =
               Lego_symbolic.Simplify.simplify ~env
                 (E.lt (coord k) (E.const (List.nth extents k)))
             in
             "(" ^ T.expr guard ^ ")")
    in
    match terms with
    | [] -> None
    | terms ->
      Some (render_with_aranges ~slice_info (String.concat " & " terms))
end

let test_slice_mask_byte_identical_to_reference () =
  let fix v = T.Fix (E.var v) in
  let cases =
    [
      (* The padded tiled views the gallery corpus exercises. *)
      ( [ [ 4; 4 ]; [ 32; 16 ] ],
        [ 100; 50 ],
        [ fix "pid_m"; fix "k"; T.All; T.All ] );
      ([ [ 4; 4 ]; [ 32; 16 ] ], [ 128; 64 ], [ fix "pid_m"; fix "k"; T.All; T.All ]);
      ([ [ 3; 2 ]; [ 8; 8 ] ], [ 20; 13 ], [ T.All; fix "pid_n"; T.All; fix "t" ]);
      ([ [ 5 ]; [ 16 ] ], [ 70 ], [ fix "pid"; T.All ]);
      (* Three-level hierarchy with a high rank: the shape where the
         quadratic [List.nth] walks used to bite. *)
      ( [ [ 2; 3; 2; 2 ]; [ 2; 2; 2; 2 ]; [ 4; 2; 3; 2 ] ],
        [ 15; 11; 10; 7 ],
        [ fix "a"; fix "b"; fix "c"; fix "d";
          fix "e"; fix "f"; fix "g"; fix "h";
          T.All; fix "i"; T.All; fix "j" ] );
    ]
  in
  List.iteri
    (fun n (group, extents, indices) ->
      Alcotest.(check (option string))
        (Printf.sprintf "case %d byte-identical" n)
        (Reference.slice_mask ~group ~extents indices)
        (T.slice_mask ~group ~extents indices))
    cases

let suite =
  ( "affine",
    [
      Alcotest.test_case "equation 6 strides" `Quick test_eq6_strides;
      Alcotest.test_case "column-major strides" `Quick test_col_major_strides;
      Alcotest.test_case "non-affine layouts rejected" `Quick
        test_nonaffine_rejected;
      Alcotest.test_case "linearize" `Quick test_linearize;
      Alcotest.test_case "padded tiled view" `Quick test_padded_view;
      Alcotest.test_case "slice masks" `Quick test_slice_mask;
      Alcotest.test_case "no mask when divisible" `Quick
        test_no_mask_when_divisible;
      Alcotest.test_case "mask semantics" `Quick test_mask_semantics;
      Alcotest.test_case "slice_mask byte-identical to list reference" `Quick
        test_slice_mask_byte_identical_to_reference;
    ]
    @ [ QCheck_alcotest.to_alcotest ~long:false prop_affine_strides_correct ] )
