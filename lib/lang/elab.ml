module L = Lego_layout
module A = L.Algebra

exception Elab_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Elab_error s)) fmt

let elab_perm = function
  | Ast.Reg_p (dims, sigma) ->
    if List.length dims <> List.length sigma then
      err "RegP: %d dimensions but a %d-entry permutation" (List.length dims)
        (List.length sigma);
    L.Piece.reg ~dims ~sigma:(L.Sigma.of_one_based sigma)
  | Ast.Gen_p (name, dims) -> (
    match L.Gallery.lookup name dims with
    | Some piece -> piece
    | None ->
      err "GenP: no gallery bijection %S at %s (known: %s)" name
        (Format.asprintf "%a" L.Shape.pp dims)
        (String.concat ", " (L.Gallery.names ())))
  | Ast.Row dims -> L.Sugar.row dims
  | Ast.Col dims -> L.Sugar.col dims

(* Algebra expressions elaborate to either a strided layout (kept
   strided so further operators stay in the exact algebra) or a piece
   (once a gallery bijection is involved).  Every operator checks its
   side conditions on the operands' integers; a failed one surfaces as
   the positioned error Algebra.pp_error renders. *)
type aval = Strided_v of A.t | Piece_v of L.Piece.t

let algebra_err (e : A.error) = err "%s" (Format.asprintf "%a" A.pp_error e)
let get = function Ok v -> v | Error e -> algebra_err e

let layout_of = function
  | Strided_v l -> Some l
  | Piece_v p -> A.of_piece p

let piece_of = function
  | Piece_v p -> p
  | Strided_v l -> get (A.to_piece l)

let rec elab_aexpr = function
  | Ast.Atom p -> Piece_v (elab_perm p)
  | Ast.Strided (shape, stride) -> Strided_v (A.make ~shape ~stride)
  | Ast.Compose (ea, eb) -> (
    let va = elab_aexpr ea and vb = elab_aexpr eb in
    match (layout_of va, layout_of vb) with
    | Some la, Some lb -> (
      match A.compose la lb with
      | Ok l -> Strided_v l
      | Error e ->
        (* Bijective operands that fail the strided divisibility can
           still compose as a general (GenP) bijection. *)
        if A.is_bijection la && A.is_bijection lb then
          Piece_v (get (A.compose_pieces (piece_of va) (piece_of vb)))
        else algebra_err e)
    | _ -> Piece_v (get (A.compose_pieces (piece_of va) (piece_of vb))))
  | Ast.Complement (ea, m) -> (
    match layout_of (elab_aexpr ea) with
    | Some la -> Strided_v (get (A.complement la m))
    | None -> err "complement: operand is not a strided layout")
  | Ast.Divide (ea, eb) -> (
    let va = elab_aexpr ea in
    let vb = elab_aexpr eb in
    match layout_of vb with
    | None -> err "divide: the tile operand must be a strided layout"
    | Some lb -> (
      match layout_of va with
      | Some la -> Strided_v (get (A.logical_divide la lb))
      | None ->
        (* General left operand: A o tiler(B, |A|) at the piece level. *)
        let pa = piece_of va in
        let t = get (A.tiler lb (L.Piece.numel pa)) in
        Piece_v (get (A.compose_pieces pa (get (A.to_piece t))))))
  | Ast.Product (ea, eb) -> (
    match (layout_of (elab_aexpr ea), layout_of (elab_aexpr eb)) with
    | Some la, Some lb -> Strided_v (get (A.logical_product la lb))
    | _ -> err "product: operands must be strided layouts")

let elab_piece e = piece_of (elab_aexpr e)

let elab_reorder = function
  | Ast.Order_by exprs -> [ L.Order_by.make (List.map elab_piece exprs) ]
  | Ast.Tile_order_by exprs -> L.Sugar.tile_order_by (List.map elab_piece exprs)
  | Ast.Tile_by shapes -> [ L.Sugar.tile_by shapes ]
  | Ast.Group_by _ -> err "GroupBy may only end a chain"

let chain blocks =
  match List.rev blocks with
  | [] -> err "empty chain"
  | last :: rev_prefix ->
    let prefix = List.rev rev_prefix in
    let reorders = List.concat_map elab_reorder prefix in
    (match last with
    | Ast.Group_by shapes -> L.Group_by.make ~chain:reorders shapes
    | Ast.Tile_by shapes ->
      L.Group_by.make ~chain:(reorders @ [ L.Sugar.tile_by shapes ]) shapes
    | Ast.Order_by _ | Ast.Tile_order_by _ ->
      err "a chain must end in GroupBy or TileBy")

let layout_of_string text =
  match Parser.parse text with
  | Error e -> Error e
  | Ok ast -> (
    match chain ast with
    | layout -> Ok layout
    | exception Elab_error msg -> Error msg
    | exception Invalid_argument msg -> Error msg)

let roundtrip layout =
  layout_of_string (Format.asprintf "%a" L.Group_by.pp layout)
