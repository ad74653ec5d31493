module L = Lego_layout

(* The identity layout of [m] elements: a rank-1 RegP. *)
let flat_piece m = L.Piece.reg ~dims:[ m ] ~sigma:(L.Sigma.identity 1)

let set_nth xs i x = List.mapi (fun k y -> if k = i then x else y) xs

(* Candidate shrinks, ordered biggest-step first.  Every candidate
   preserves the element count, so it stays a well-formed layout. *)
let candidates g =
  let shapes = L.Group_by.shapes g in
  let chain = L.Group_by.chain g in
  let n = L.Group_by.numel g in
  let drop_order_by =
    List.mapi
      (fun i _ ->
        L.Group_by.make ~chain:(List.filteri (fun j _ -> j <> i) chain) shapes)
      chain
  in
  let flatten_group =
    if shapes <> [ [ n ] ] then [ L.Group_by.make ~chain [ [ n ] ] ] else []
  in
  let simplify_piece =
    List.concat
      (List.mapi
         (fun i o ->
           let pieces = L.Order_by.pieces o in
           List.concat
             (List.mapi
                (fun j p ->
                  let flat = flat_piece (L.Piece.numel p) in
                  if L.Piece.equal p flat then []
                  else
                    [
                      L.Group_by.make
                        ~chain:
                          (set_nth chain i
                             (L.Order_by.make (set_nth pieces j flat)))
                        shapes;
                    ])
                pieces))
         chain)
  in
  drop_order_by @ flatten_group @ simplify_piece

(* Predicate evaluations one shrink may spend. *)
let budget = 200

let minimize still_fails g =
  let left = ref budget in
  let try_candidate c =
    !left > 0
    &&
    begin
      decr left;
      (* A candidate may still blow up inside the predicate (that can be
         the very bug being shrunk); treat an exception as "still
         fails" only if the caller's predicate says so — here we guard
         so shrinking never masks the original failure. *)
      match still_fails c with
      | fails -> fails
      | exception _ -> false
    end
  in
  let rec go g =
    match List.find_opt try_candidate (candidates g) with
    | Some c -> go c
    | None -> g
  in
  go g
