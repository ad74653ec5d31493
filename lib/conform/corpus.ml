module L = Lego_layout
module A = L.Algebra

(* Corpus construction is static, so a failed side condition here is a
   build bug: fail loudly rather than silently dropping the entry. *)
let get_ok what = function
  | Ok v -> v
  | Error e ->
    invalid_arg (Format.asprintf "Corpus.%s: %a" what A.pp_error e)

(* Column tiles of the row-major 8x4 image: the worked logical-divide
   example from the docs, as a conformance entry. *)
let divide_tiled =
  let a = A.row [ 8; 4 ] in
  let b = A.make ~shape:[ 4 ] ~stride:[ 4 ] in
  let l = get_ok "divide_tiled" (A.logical_divide a b) in
  let p = get_ok "divide_tiled" (A.to_piece l) in
  L.Group_by.make ~chain:[ L.Order_by.make [ p ] ] [ L.Piece.dims p ]

(* An 8-element column order repeated across 4 tiles by logical product. *)
let product_repeated =
  let b = A.make ~shape:[ 4; 2 ] ~stride:[ 2; 1 ] in
  let l = get_ok "product_repeated" (A.logical_product b (A.id 4)) in
  let p = get_ok "product_repeated" (A.to_piece l) in
  L.Group_by.make ~chain:[ L.Order_by.make [ p ] ] [ L.Piece.dims p ]

(* A gallery swizzle composed (at the piece level) with a strided
   transpose tile: exercises the composite (GenP) fallback through every
   backend. *)
let swizzle_of_tile =
  let swz = L.Gallery.xor_swizzle ~rows:16 ~cols:8 in
  let tile =
    L.Piece.reg ~dims:[ 8; 16 ] ~sigma:(L.Sigma.of_one_based [ 2; 1 ])
  in
  let p = get_ok "swizzle_of_tile" (A.compose_pieces swz tile) in
  L.Group_by.make ~chain:[ L.Order_by.make [ p ] ] [ L.Piece.dims p ]

let all =
  [
    ( "row-major tiled A (DL_a)",
      L.Sugar.tiled_view ~group:[ [ 8; 4 ]; [ 16; 32 ] ] () );
    ( "column-major tiled A^T",
      L.Sugar.tiled_view
        ~order:[ L.Sugar.col [ 128; 128 ] ]
        ~group:[ [ 8; 4 ]; [ 16; 32 ] ]
        () );
    ( "grouped program ids (CL)",
      L.Sugar.tiled_view
        ~order:[ L.Sugar.col [ 4; 1 ]; L.Sugar.col [ 8; 16 ] ]
        ~group:[ [ 32; 16 ] ] () );
    ( "anti-diagonal NW buffer",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.antidiag 17 ] ]
        [ [ 17; 17 ] ] );
    ( "Z-Morton 16x16",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.morton ~d:2 ~bits:4 ] ]
        [ [ 16; 16 ] ] );
    ( "figure 9 ensemble",
      L.Group_by.make
        ~chain:
          [
            L.Order_by.make
              [
                L.Piece.reg ~dims:[ 2; 2 ] ~sigma:(L.Sigma.of_one_based [ 2; 1 ]);
                L.Gallery.antidiag 3;
              ];
            L.Order_by.make
              [
                L.Piece.reg ~dims:[ 2; 3; 2; 3 ]
                  ~sigma:(L.Sigma.of_one_based [ 1; 3; 2; 4 ]);
              ];
          ]
        [ [ 6; 6 ] ] );
    ( "Hilbert 8x8",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.hilbert ~bits:3 ] ]
        [ [ 8; 8 ] ] );
    ( "XOR-swizzled smem tile",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.xor_swizzle ~rows:16 ~cols:8 ] ]
        [ [ 16; 8 ] ] );
    ( "masked XOR-swizzled smem tile",
      L.Group_by.make
        ~chain:
          [
            L.Order_by.make
              [ L.Gallery.xor_swizzle_masked ~rows:32 ~cols:16 ~mask:7 ~shift:1 ];
          ]
        [ [ 32; 16 ] ] );
    ( "cyclic diagonal 9x9",
      L.Group_by.make
        ~chain:[ L.Order_by.make [ L.Gallery.cyclic_diag 9 ] ]
        [ [ 9; 9 ] ] );
    ("divide-tiled row-major (algebra)", divide_tiled);
    ("product-repeated column order (algebra)", product_repeated);
    ("swizzle o transpose tile (algebra)", swizzle_of_tile);
  ]
