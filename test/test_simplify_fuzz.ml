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

(* Lane [l]'s value; a raising lane fails the test. *)
let value name (r : E.column) l =
  match r.raised.(l) with
  | Some ex ->
    Alcotest.failf "%s: lane %d raised %s" name l (Printexc.to_string ex)
  | None -> r.values.(l)

(* Every index of [dims] in order, and the same points as one column
   per dimension: the lanes of one evaluator call. *)
let lanes_of dims =
  let points = Array.of_seq (L.Shape.indices dims) in
  ( points,
    Array.of_list
      (List.mapi (fun d _ -> Array.map (fun idx -> List.nth idx d) points) dims)
  )

let test_apply_semantics_preserved () =
  List.iter
    (fun (name, layout) ->
      let dims = L.Group_by.dims layout in
      let params = var_names dims in
      let env = Sym.ranges_of layout in
      let raw = Sym.apply ~simplify:false layout in
      let points, cols = lanes_of dims in
      let lanes = Array.length points in
      let r_raw = E.evaluator ~params raw ~lanes cols in
      let r_simplified =
        E.evaluator ~params (Simplify.simplify ~env raw) ~lanes cols
      in
      Array.iteri
        (fun l idx ->
          let expect = value name r_raw l in
          let got = value name r_simplified l in
          if got <> expect then
            Alcotest.failf "%s: apply disagrees at [%s]: raw %d, simplified %d"
              name
              (String.concat ", " (List.map string_of_int idx))
              expect got)
        points)
    corpus

let test_inv_semantics_preserved () =
  List.iter
    (fun (name, layout) ->
      let numel = L.Group_by.numel layout in
      let env = Range.env_of_list [ ("p", Range.of_extent numel) ] in
      let raw = Sym.inv ~simplify:false layout in
      let ps = [| Array.init numel Fun.id |] in
      let eval e = E.evaluator ~params:[ "p" ] e ~lanes:numel ps in
      let evals =
        List.map (fun r -> (eval r, eval (Simplify.simplify ~env r))) raw
      in
      for p = 0 to numel - 1 do
        List.iteri
          (fun k (r_raw, r_simplified) ->
            let expect = value name r_raw p in
            let got = value name r_simplified p in
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
      let env = Sym.ranges_of layout in
      let points, cols = lanes_of dims in
      let r =
        E.evaluator ~params:(var_names dims)
          (Simplify.simplify ~env (Sym.apply ~simplify:false layout))
          ~lanes:(Array.length points) cols
      in
      Array.iteri
        (fun l idx ->
          let expect = L.Group_by.apply_ints layout idx in
          let got = value name r l in
          if got <> expect then
            Alcotest.failf "%s: symbolic apply disagrees at [%s]: %d vs %d"
              name
              (String.concat ", " (List.map string_of_int idx))
              got expect)
        points)
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
