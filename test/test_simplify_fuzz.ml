(* Semantics-preservation fuzz for the simplifier over the shared
   differential-testing corpus (lib/conform): for every layout, the raw
   and simplified symbolic apply/inv expressions must agree on every
   in-range index point, and the layout itself must be a bijection
   (Check.layout). *)

open Lego_symbolic
module E = Expr
module L = Lego_layout

let corpus = Lego_conform.Corpus.all

let var_names dims = List.mapi (fun k _ -> Printf.sprintf "i%d" k) dims

let test_gallery_bijections () =
  List.iter
    (fun (name, layout) ->
      match L.Check.layout layout with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: not a bijection: %s" name e)
    corpus

let test_apply_semantics_preserved () =
  List.iter
    (fun (name, layout) ->
      let dims = L.Group_by.dims layout in
      let names = var_names dims in
      let env = Sym.ranges_of layout in
      let raw = Sym.apply ~simplify:false layout in
      let eval_raw = E.evaluator raw in
      let eval_simplified = E.evaluator (Simplify.simplify ~env raw) in
      Seq.iter
        (fun idx ->
          let bindings = List.combine names idx in
          let lookup v = List.assoc v bindings in
          let expect = eval_raw ~env:lookup in
          let got = eval_simplified ~env:lookup in
          if got <> expect then
            Alcotest.failf "%s: apply disagrees at [%s]: raw %d, simplified %d"
              name
              (String.concat ", " (List.map string_of_int idx))
              expect got)
        (L.Shape.indices dims))
    corpus

let test_inv_semantics_preserved () =
  List.iter
    (fun (name, layout) ->
      let numel = L.Group_by.numel layout in
      let env = Range.env_of_list [ ("p", Range.of_extent numel) ] in
      let raw = Sym.inv ~simplify:false layout in
      let evals =
        List.map
          (fun r -> (E.evaluator r, E.evaluator (Simplify.simplify ~env r)))
          raw
      in
      for p = 0 to numel - 1 do
        let lookup v =
          if v = "p" then p else Alcotest.failf "unexpected var %s" v
        in
        List.iteri
          (fun k (eval_raw, eval_simplified) ->
            let expect = eval_raw ~env:lookup in
            let got = eval_simplified ~env:lookup in
            if got <> expect then
              Alcotest.failf
                "%s: inv component %d disagrees at p=%d: raw %d, simplified %d"
                name k p expect got)
          evals
      done)
    corpus

let test_simplified_apply_matches_concrete () =
  (* Not just raw == simplified: the simplified symbolic apply must also
     match the concrete integer-domain layout on every point. *)
  List.iter
    (fun (name, layout) ->
      let dims = L.Group_by.dims layout in
      let names = var_names dims in
      let env = Sym.ranges_of layout in
      let eval_simplified =
        E.evaluator (Simplify.simplify ~env (Sym.apply ~simplify:false layout))
      in
      Seq.iter
        (fun idx ->
          let bindings = List.combine names idx in
          let lookup v = List.assoc v bindings in
          let expect = L.Group_by.apply_ints layout idx in
          let got = eval_simplified ~env:lookup in
          if got <> expect then
            Alcotest.failf "%s: symbolic apply disagrees at [%s]: %d vs %d"
              name
              (String.concat ", " (List.map string_of_int idx))
              got expect)
        (L.Shape.indices dims))
    corpus

let suite =
  ( "simplify-fuzz",
    [
      Alcotest.test_case "gallery layouts are bijections" `Quick
        test_gallery_bijections;
      Alcotest.test_case "apply: raw == simplified on all points" `Quick
        test_apply_semantics_preserved;
      Alcotest.test_case "inv: raw == simplified on all points" `Quick
        test_inv_semantics_preserved;
      Alcotest.test_case "simplified apply == concrete layout" `Quick
        test_simplified_apply_matches_concrete;
    ] )
