let row dims = Piece.reg ~dims ~sigma:(Sigma.identity (Shape.rank dims))
let col dims = Piece.reg ~dims ~sigma:(Sigma.reversal (Shape.rank dims))

let interleave ~d ~q =
  if d <= 0 || q <= 0 then invalid_arg "Sugar.interleave: d and q positive";
  (* Level-major position h*d + k holds dimension-major position k*q + h
     (0-based): physical (dimension-major) position p = k*q + h reads
     logical (level-major) position h*d + k. *)
  Sigma.of_list
    (List.init (d * q) (fun p ->
         let k = p / q and h = p mod q in
         (h * d) + k))

let same_rank name shapes =
  match shapes with
  | [] -> invalid_arg (name ^ ": at least one level is required")
  | s0 :: rest ->
    let d = Shape.rank s0 in
    List.iter
      (fun s ->
        if Shape.rank s <> d then
          invalid_arg (name ^ ": all levels must share a dimensionality"))
      rest;
    d

let full_dims shapes =
  let d = same_rank "Sugar.full_dims" shapes in
  List.init d (fun k ->
      List.fold_left (fun acc s -> acc * List.nth s k) 1 shapes)

let tile_by shapes =
  let d = same_rank "Sugar.tile_by" shapes in
  let q = List.length shapes in
  Order_by.make
    [ Piece.reg ~dims:(List.concat shapes) ~sigma:(interleave ~d ~q) ]

let tile_order_by pieces =
  match pieces with
  | [] -> invalid_arg "Sugar.tile_order_by: at least one piece is required"
  | _ ->
    let shapes = List.map Piece.dims pieces in
    let d = same_rank "Sugar.tile_order_by" shapes in
    let q = List.length pieces in
    let sigma = interleave ~d ~q in
    (* The inner RegP views the flat space dimension-major and reorders it
       level-major; the outer OrderBy then permutes each level. *)
    let dim_major_dims = Sigma.permute sigma (List.concat shapes) in
    [
      Order_by.make pieces;
      Order_by.make [ Piece.reg ~dims:dim_major_dims ~sigma:(Sigma.inverse sigma) ];
    ]

let ceil_div a b =
  if b <= 0 then invalid_arg "Sugar.ceil_div: non-positive divisor";
  (a + b - 1) / b

let tiled_view ?order ~group () =
  let tiling = tile_by group in
  let order =
    match order with
    | Some pieces -> pieces
    | None -> [ row (full_dims group) ]
  in
  Group_by.make ~chain:(tile_order_by order @ [ tiling ]) group

let padded_tiled_view ~dims ~tile =
  if List.length dims <> List.length tile then
    invalid_arg "Sugar.padded_tiled_view: dims/tile rank mismatch";
  let outer = List.map2 ceil_div dims tile in
  (tiled_view ~group:[ outer; tile ] (), dims)
