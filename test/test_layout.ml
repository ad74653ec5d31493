(* Tests for the core layout algebra: canonical bijections, pieces,
   OrderBy/GroupBy semantics (including the paper's worked examples),
   sugar, and the gallery of general bijections. *)

open Lego_layout

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* Regression: [Check.layout] of a legal count too large to enumerate
   raised [Invalid_argument("Array.make")] at [max_int], and at 2⁴⁰
   would have tried to allocate 8 TB.  Both checks now refuse such a
   count, naming it, before allocating anything: each refusal allocates
   under 64 KB. *)
let test_check_refuses_huge_counts () =
  Alcotest.(check int) "the limit" (1 lsl 32) Check.max_elements;
  List.iter
    (fun n ->
      let g = Group_by.make [ [ n ] ] in
      let p = Piece.reg ~dims:[ n ] ~sigma:(Sigma.identity 1) in
      List.iter
        (fun (fn, f) ->
          let msg =
            Printf.sprintf
              "Check.%s: %d elements exceed the exhaustive-check limit of %d"
              fn n Check.max_elements
          in
          let before = Gc.allocated_bytes () in
          Alcotest.check_raises
            (Printf.sprintf "%s of %d" fn n)
            (Invalid_argument msg)
            (fun () -> f ());
          let allocated = Gc.allocated_bytes () -. before in
          Alcotest.(check bool)
            (Printf.sprintf "%s of %d allocated %.0f bytes" fn n allocated)
            true (allocated < 65536.))
        [
          ("layout", fun () -> ignore (Check.layout g));
          ("piece", fun () -> ignore (Check.piece p));
        ])
    [ max_int; 1 lsl 40 ]

(* The occupancy set of an exhaustive check is one byte per element: a
   [bool array] made [Check.layout] of 2²⁰ elements allocate 1,048,576
   major-heap words, and 32 GiB at [Check.max_elements]. *)
let test_check_occupancy_is_bytes () =
  let g = Group_by.make [ [ 1024; 1024 ] ] in
  let before = (Gc.quick_stat ()).Gc.major_words in
  Alcotest.(check (result unit string)) "bijective" (Ok ()) (Check.layout g);
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words < 524288" words)
    true (words < 524288.)

(* --- Shape ------------------------------------------------------------ *)

let test_flatten_unflatten () =
  check_int "B [2;3;4] [1;2;3]" ((1 * 12) + (2 * 4) + 3)
    (Shape.flatten_ints [ 2; 3; 4 ] [ 1; 2; 3 ]);
  check_ints "B^-1 roundtrip" [ 1; 2; 3 ] (Shape.unflatten_ints [ 2; 3; 4 ] 23);
  for flat = 0 to 23 do
    check_int "flatten . unflatten = id" flat
      (Shape.flatten_ints [ 2; 3; 4 ] (Shape.unflatten_ints [ 2; 3; 4 ] flat))
  done

let test_shape_validate () =
  Alcotest.check_raises "empty shape" (Invalid_argument "Shape.validate: empty shape")
    (fun () -> Shape.validate []);
  Alcotest.check_raises "non-positive extent"
    (Invalid_argument "Shape.validate: non-positive extent 0") (fun () ->
      Shape.validate [ 2; 0 ])

(* Regression: element counts multiplied without a check, so
   GroupBy([65536, 65536, 65536, 65536]) had 0 elements and its
   bijection check passed vacuously, across levels too, and
   GroupBy([4611686018427387903, 4]) had -4.  Every constructor that
   multiplies extents now rejects a count past [max_int], naming the
   extents; a count of exactly [max_int] is still a shape. *)
let test_element_count_overflow () =
  let big = 65536 and top = max_int in
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "one shape"
    "Shape.validate: element count of [65536, 65536, 65536, 65536] exceeds \
     max_int" (fun () -> Shape.validate [ big; big; big; big ]);
  raises "wrap to a negative count"
    "Shape.validate: element count of [4611686018427387903, 4] exceeds \
     max_int" (fun () -> Shape.validate [ top; 4 ]);
  raises "across levels"
    "Shape.validate: element count of [65536, 65536, 65536, 65536] exceeds \
     max_int" (fun () -> Group_by.make [ [ big; big ]; [ big; big ] ]);
  raises "across pieces"
    "Shape.validate: element count of [4611686018427387903, \
     4611686018427387903] exceeds max_int" (fun () ->
      let p = Piece.reg ~dims:[ top ] ~sigma:(Sigma.identity 1) in
      Order_by.make [ p; p ]);
  raises "a piece"
    "Shape.validate: element count of [65536, 65536, 65536, 65536] exceeds \
     max_int" (fun () ->
      Piece.reg ~dims:[ big; big; big; big ] ~sigma:(Sigma.identity 4));
  raises "an algebra layout"
    "Shape.validate: element count of [65536, 65536, 65536, 65536] exceeds \
     max_int" (fun () ->
      Algebra.make ~shape:[ big; big; big; big ] ~stride:[ 1; 1; 1; 1 ]);
  Shape.validate [ top ];
  Shape.validate [ 1 lsl 30; 1 lsl 31 ];
  check_int "max_int elements" top (Group_by.numel (Group_by.make [ [ top ] ]))

let test_indices_order () =
  let idx = List.of_seq (Shape.indices [ 2; 2 ]) in
  Alcotest.(check (list (list int)))
    "row-major enumeration"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    idx

(* --- Sigma ------------------------------------------------------------ *)

let test_sigma_basics () =
  let s = Sigma.of_one_based [ 2; 3; 1 ] in
  Alcotest.(check (list string))
    "permute" [ "b"; "c"; "a" ]
    (Sigma.permute s [ "a"; "b"; "c" ]);
  Alcotest.(check (list string))
    "inverse undoes" [ "a"; "b"; "c" ]
    (Sigma.permute (Sigma.inverse s) (Sigma.permute s [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "identity" true (Sigma.is_identity (Sigma.identity 4));
  check_ints "reversal" [ 3; 2; 1; 0 ] (Sigma.to_list (Sigma.reversal 4))

let test_sigma_invalid () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Sigma.of_list: duplicate entry 0") (fun () ->
      ignore (Sigma.of_list [ 0; 0 ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sigma.of_list: entry 3 out of range 0..1") (fun () ->
      ignore (Sigma.of_list [ 3; 0 ]))

let test_sigma_compose () =
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          let xs = [ 10; 20; 30 ] in
          check_ints "compose law"
            (Sigma.permute s2 (Sigma.permute s1 xs))
            (Sigma.permute (Sigma.compose s2 s1) xs))
        (Sigma.all 3))
    (Sigma.all 3)

(* --- Pieces ----------------------------------------------------------- *)

let test_regp_semantics () =
  (* RegP([2;3], [2;1]) is a transpose: physical shape 3x2. *)
  let p = Piece.reg ~dims:[ 2; 3 ] ~sigma:(Sigma.of_one_based [ 2; 1 ]) in
  check_int "apply (1,2)" ((2 * 2) + 1) (Piece.apply_ints p [ 1; 2 ]);
  check_ints "inv" [ 1; 2 ] (Piece.inv_ints p 5);
  Alcotest.(check (result unit string)) "bijective" (Ok ()) (Check.piece p)

let test_all_regp_bijective () =
  List.iter
    (fun sigma ->
      let p = Piece.reg ~dims:[ 2; 3; 4 ] ~sigma in
      Alcotest.(check (result unit string))
        (Format.asprintf "RegP sigma %a" Sigma.pp sigma)
        (Ok ()) (Check.piece p))
    (Sigma.all 3)

(* --- Paper examples --------------------------------------------------- *)

let fig9_layout () =
  let o1 =
    Order_by.make
      [
        Piece.reg ~dims:[ 2; 2 ] ~sigma:(Sigma.of_one_based [ 2; 1 ]);
        Gallery.antidiag 3;
      ]
  in
  let o2 =
    Order_by.make
      [ Piece.reg ~dims:[ 2; 3; 2; 3 ] ~sigma:(Sigma.of_one_based [ 1; 3; 2; 4 ]) ]
  in
  Group_by.make ~chain:[ o1; o2 ] [ [ 6; 6 ] ]

let test_fig9_golden () =
  let g = fig9_layout () in
  (* The paper: logical [4,2] -> 26 -> O2 -> 23 -> O1 -> 15. *)
  check_int "apply [4,2]" 15 (Group_by.apply_ints g [ 4; 2 ]);
  check_ints "inv 15" [ 4; 2 ] (Group_by.inv_ints g 15);
  let o2_only =
    Group_by.make
      ~chain:
        [
          Order_by.make
            [
              Piece.reg ~dims:[ 2; 3; 2; 3 ]
                ~sigma:(Sigma.of_one_based [ 1; 3; 2; 4 ]);
            ];
        ]
      [ [ 6; 6 ] ]
  in
  check_int "O2 alone maps [4,2] to 23" 23 (Group_by.apply_ints o2_only [ 4; 2 ]);
  Alcotest.(check (result unit string)) "fig 9 bijective" (Ok ()) (Check.layout g)

let test_eq7_layout () =
  (* Equation 7: GroupBy([2,2,2,2,2]).OrderBy(RegP([2,2,2,2,2],[5,2,4,3,1]))
     reproduces the non-contiguous tiling of figure 10 on a 4x8 space. *)
  let g =
    Group_by.make
      ~chain:
        [
          Order_by.make
            [
              Piece.reg ~dims:[ 2; 2; 2; 2; 2 ]
                ~sigma:(Sigma.of_one_based [ 5; 2; 4; 3; 1 ]);
            ];
        ]
      [ [ 2; 2; 2; 2; 2 ] ]
  in
  Alcotest.(check (result unit string)) "eq 7 bijective" (Ok ()) (Check.layout g);
  (* Figure 10: physical offsets of the 4x8 matrix read 0 4 8 12 ... down
     the columns: logical row-major element (0,1) holds value 4. *)
  (* Figure 10's matrix stores value j*4 + i at (i, j) — a column-major
     4x8 space assembled from non-contiguous 2x(2,2) tiles.  Under the
     permutation [5,2,4,3,1] the logical bit assignment that realizes it
     is (i0, j1, i1, j0, j2). *)
  let logical i j = [ i mod 2; (j / 2) mod 2; i / 2; j mod 2; j / 4 ] in
  for i = 0 to 3 do
    for j = 0 to 7 do
      check_int
        (Printf.sprintf "(%d,%d)" i j)
        ((j * 4) + i)
        (Group_by.apply_ints g (logical i j))
    done
  done

let test_grouped_pid_ordering () =
  (* Section 5.2: the computation layout reproduces Triton's grouped
     program-id ordering. *)
  let gm = 3 and npm = 9 and npn = 4 in
  let cl =
    Sugar.tiled_view
      ~order:[ Sugar.col [ npm / gm; 1 ]; Sugar.col [ gm; npn ] ]
      ~group:[ [ npm; npn ] ] ()
  in
  for pid = 0 to (npm * npn) - 1 do
    let group_size = gm * npn in
    let group_id = pid / group_size in
    let expect_m = (group_id * gm) + (pid mod group_size mod gm) in
    let expect_n = pid mod group_size / gm in
    check_ints
      (Printf.sprintf "pid %d" pid)
      [ expect_m; expect_n ]
      (Group_by.inv_ints cl pid)
  done

(* --- Sugar ------------------------------------------------------------ *)

let test_row_col () =
  let row = Sugar.row [ 3; 5 ] and col = Sugar.col [ 3; 5 ] in
  check_int "row (1,2)" ((1 * 5) + 2) (Piece.apply_ints row [ 1; 2 ]);
  check_int "col (1,2)" ((2 * 3) + 1) (Piece.apply_ints col [ 1; 2 ])

let test_interleave () =
  check_ints "sigma 2x3" [ 1; 3; 5; 2; 4; 6 ]
    (Sigma.to_one_based (Sugar.interleave ~d:2 ~q:3));
  check_ints "sigma 3x2" [ 1; 4; 2; 5; 3; 6 ]
    (Sigma.to_one_based (Sugar.interleave ~d:3 ~q:2))

let test_tile_by_strip_mines () =
  (* TileBy([M/BM, K/BK], [BM, BK]) flattens the tiled index to the
     row-major offset of the untiled matrix. *)
  let m = 8 and k = 6 and bm = 2 and bk = 3 in
  let g = Sugar.tiled_view ~group:[ [ m / bm; k / bk ]; [ bm; bk ] ] () in
  for i = 0 to m - 1 do
    for j = 0 to k - 1 do
      check_int
        (Printf.sprintf "(%d,%d)" i j)
        ((i * k) + j)
        (Group_by.apply_ints g [ i / bm; j / bk; i mod bm; j mod bk ])
    done
  done

let test_tiled_view_col_major () =
  let m = 4 and k = 6 and bm = 2 and bk = 3 in
  let g =
    Sugar.tiled_view
      ~order:[ Sugar.col [ m; k ] ]
      ~group:[ [ m / bm; k / bk ]; [ bm; bk ] ]
      ()
  in
  for i = 0 to m - 1 do
    for j = 0 to k - 1 do
      check_int
        (Printf.sprintf "(%d,%d)" i j)
        ((j * m) + i)
        (Group_by.apply_ints g [ i / bm; j / bk; i mod bm; j mod bk ])
    done
  done

let test_full_dims () =
  check_ints "full dims" [ 8; 6 ] (Sugar.full_dims [ [ 4; 2 ]; [ 2; 3 ] ])

(* --- Gallery ---------------------------------------------------------- *)

let test_antidiag_golden () =
  (* Figure 8 / figure 9's 3x3 anti-diagonal order. *)
  let p = Gallery.antidiag 3 in
  let expect = [ (0, 0, 0); (0, 1, 1); (1, 0, 2); (0, 2, 3); (1, 1, 4);
                 (2, 0, 5); (1, 2, 6); (2, 1, 7); (2, 2, 8) ] in
  List.iter
    (fun (i, j, flat) ->
      check_int (Printf.sprintf "antidiag (%d,%d)" i j) flat
        (Piece.apply_ints p [ i; j ]);
      check_ints (Printf.sprintf "antidiag inv %d" flat) [ i; j ]
        (Piece.inv_ints p flat))
    expect

let test_gallery_bijective () =
  List.iter
    (fun (name, piece) ->
      Alcotest.(check (result unit string)) name (Ok ()) (Check.piece piece))
    [
      ("antidiag 1", Gallery.antidiag 1);
      ("antidiag 2", Gallery.antidiag 2);
      ("antidiag 7", Gallery.antidiag 7);
      ("antidiag 16", Gallery.antidiag 16);
      ("antidiag 17", Gallery.antidiag 17);
      ("reverse [3;4;5]", Gallery.reverse [ 3; 4; 5 ]);
      ("morton 2d", Gallery.morton ~d:2 ~bits:3);
      ("morton 3d", Gallery.morton ~d:3 ~bits:2);
      ("hilbert 8", Gallery.hilbert ~bits:3);
      ("hilbert 16", Gallery.hilbert ~bits:4);
      ("swizzle 8x8", Gallery.xor_swizzle ~rows:8 ~cols:8);
      ("swizzle 5x16", Gallery.xor_swizzle ~rows:5 ~cols:16);
      ("cyclic diag 6", Gallery.cyclic_diag 6);
    ]

let test_morton_golden () =
  let p = Gallery.morton ~d:2 ~bits:2 in
  (* Z-order on 4x4: (1,1) -> 3, (2,0) -> 8, (3,3) -> 15. *)
  check_int "morton (1,1)" 3 (Piece.apply_ints p [ 1; 1 ]);
  check_int "morton (2,0)" 8 (Piece.apply_ints p [ 2; 0 ]);
  check_int "morton (3,3)" 15 (Piece.apply_ints p [ 3; 3 ])

let test_hilbert_adjacency () =
  let p = Gallery.hilbert ~bits:3 in
  let prev = ref (Piece.inv_ints p 0) in
  for d = 1 to 63 do
    let cur = Piece.inv_ints p d in
    (match (!prev, cur) with
    | [ x0; y0 ], [ x1; y1 ] ->
      check_int
        (Printf.sprintf "curve step %d is a unit move" d)
        1
        (abs (x1 - x0) + abs (y1 - y0))
    | _ -> Alcotest.fail "hilbert rank");
    prev := cur
  done

let test_of_table () =
  let p =
    Gallery.of_table ~name:"rot" ~dims:[ 2; 3 ] (fun idx ->
        match idx with
        | [ i; j ] -> ((j * 2) + i + 1) mod 6
        | _ -> assert false)
  in
  Alcotest.(check (result unit string)) "table bijective" (Ok ()) (Check.piece p);
  Alcotest.check_raises "non-bijective table rejected"
    (Invalid_argument "Gallery.of_table(bad): not injective at 0") (fun () ->
      ignore (Gallery.of_table ~name:"bad" ~dims:[ 2; 2 ] (fun _ -> 0)))

let test_gallery_lookup () =
  Alcotest.(check bool) "antidiag found" true
    (Gallery.lookup "antidiag" [ 4; 4 ] <> None);
  Alcotest.(check bool) "antidiag needs square" true
    (Gallery.lookup "antidiag" [ 4; 5 ] = None);
  Alcotest.(check bool) "morton needs powers of two" true
    (Gallery.lookup "morton" [ 6; 6 ] = None);
  Alcotest.(check bool) "unknown name" true
    (Gallery.lookup "nope" [ 4; 4 ] = None)

(* --- Validation errors ------------------------------------------------ *)

let test_size_mismatch_rejected () =
  Alcotest.check_raises "OrderBy size mismatch"
    (Invalid_argument
       "Group_by.make: OrderBy covers 4 elements but the grouping has 6")
    (fun () ->
      ignore
        (Group_by.make
           ~chain:[ Order_by.make [ Sugar.row [ 2; 2 ] ] ]
           [ [ 2; 3 ] ]))

(* --- Property tests --------------------------------------------------- *)

let small_factor = QCheck2.Gen.oneofl [ 2; 2; 3; 4 ]

(* A random grouping shape plus a random chain of OrderBys partitioning
   the same dimension list into permuted pieces. *)
let gen_layout =
  let open QCheck2.Gen in
  let* rank = int_range 1 4 in
  let* dims = list_repeat rank small_factor in
  let piece_of_chunk chunk =
    let* choice = int_range 0 2 in
    match (choice, chunk) with
    | 0, [ n; m ] when n = m -> return (Gallery.antidiag n)
    | 1, _ -> return (Gallery.reverse chunk)
    | _ ->
      let+ sigma = oneofl (Sigma.all (List.length chunk)) in
      Piece.reg ~dims:chunk ~sigma
  in
  let rec chunks = function
    | [] -> return []
    | dims ->
      let* take = int_range 1 (min 2 (List.length dims)) in
      let chunk = List.filteri (fun k _ -> k < take) dims in
      let rest = List.filteri (fun k _ -> k >= take) dims in
      let* piece = piece_of_chunk chunk in
      let+ others = chunks rest in
      piece :: others
  in
  let order_by = chunks dims >|= Order_by.make in
  let* n_orders = int_range 0 2 in
  let+ chain = list_repeat n_orders order_by in
  Group_by.make ~chain [ dims ]

let prop_layout_bijective =
  QCheck2.Test.make ~name:"random layouts are bijections" ~count:200 gen_layout
    (fun g -> Check.layout g = Ok ())

let prop_inv_apply_id =
  QCheck2.Test.make ~name:"inv . apply = id on random index" ~count:200
    QCheck2.Gen.(pair gen_layout (int_bound 10_000))
    (fun (g, seed) ->
      let dims = Group_by.dims g in
      let idx =
        List.mapi (fun k n -> (seed / max 1 (k + 1)) mod n) dims
      in
      Group_by.inv_ints g (Group_by.apply_ints g idx) = idx)

let prop_tile_by_is_strip_mining =
  QCheck2.Test.make ~name:"TileBy == division/modulus strip-mining" ~count:100
    QCheck2.Gen.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 1 4))
    (fun (tm, tk, bm, bk) ->
      let m = tm * bm and k = tk * bk in
      let g = Sugar.tiled_view ~group:[ [ tm; tk ]; [ bm; bk ] ] () in
      List.for_all
        (fun (i, j) ->
          Group_by.apply_ints g [ i / bm; j / bk; i mod bm; j mod bk ]
          = (i * k) + j)
        (List.concat_map
           (fun i -> List.init k (fun j -> (i, j)))
           (List.init m Fun.id)))

(* --- Bijectivity checking ---------------------------------------------- *)

(* An 80x80 GenP (6400 elements) whose flat map is parameterized by a
   tweak expressed in pure domain arithmetic, so each broken variant
   exercises one error kind of the checker.  The tweaks live in a record
   so they stay polymorphic across domains. *)
type tweak = { tw : 'a. (module Domain.S with type t = 'a) -> 'a -> 'a }

let big_piece ~name ~tweak_apply ~tweak_inv =
  let w = 80 in
  let flat (type a) (module D : Domain.S with type t = a) idx : a =
    match idx with
    | [ i; j ] -> D.add (D.mul i (D.const w)) j
    | _ -> invalid_arg "big_piece: rank"
  in
  Piece.gen ~name ~dims:[ w; w ]
    {
      gb_apply =
        (fun (type a) (module D : Domain.S with type t = a) idx ->
          tweak_apply.tw (module D : Domain.S with type t = a)
            (flat (module D) idx));
      gb_inv =
        (fun (type a) (module D : Domain.S with type t = a) p ->
          let p = tweak_inv.tw (module D : Domain.S with type t = a) p in
          [ D.div p (D.const w); D.rem p (D.const w) ]);
    }

let id_tweak = { tw = (fun (type a) (module _ : Domain.S with type t = a) x -> x) }

let test_check_reports_first_violation () =
  let cases =
    [
      (* Clean: a rotation by 13 is a bijection. *)
      big_piece ~name:"rot13"
        ~tweak_apply:
          { tw = (fun (type a) (module D : Domain.S with type t = a) x ->
                D.rem (D.add x (D.const 13)) (D.const 6400)) }
        ~tweak_inv:
          { tw = (fun (type a) (module D : Domain.S with type t = a) p ->
                D.rem (D.add p (D.const 6387)) (D.const 6400)) };
      (* Duplicate: logical 5000 collides with 4999. *)
      big_piece ~name:"dup"
        ~tweak_apply:
          { tw = (fun (type a) (module D : Domain.S with type t = a) x ->
                D.select (D.eq x (D.const 5000)) (D.const 4999) x) }
        ~tweak_inv:id_tweak;
      (* Bounds: logical 6000 escapes the physical space. *)
      big_piece ~name:"oob"
        ~tweak_apply:
          { tw = (fun (type a) (module D : Domain.S with type t = a) x ->
                D.select (D.eq x (D.const 6000)) (D.const 7000) x) }
        ~tweak_inv:id_tweak;
      (* Roundtrip: inv is wrong at p = 4500. *)
      big_piece ~name:"badinv" ~tweak_apply:id_tweak
        ~tweak_inv:
          { tw = (fun (type a) (module D : Domain.S with type t = a) p ->
                D.select (D.eq p (D.const 4500)) (D.const 4501) p) };
    ]
  in
  (* The scan stops at the first violation, and at one index checks
     bounds, then a repeated offset, then the roundtrip. *)
  Alcotest.(check (list (result unit string)))
    "first violation of each piece"
    [
      Ok ();
      Error "GenP(dup[80, 80]): physical offset 4999 hit twice (at logical 5000)";
      Error "GenP(oob[80, 80]): logical 6000 maps to 7000, outside 0..6399";
      Error "GenP(badinv[80, 80]): inv (apply 4500) = 4501, expected identity";
    ]
    (List.map Check.piece cases)

let props = [ prop_layout_bijective; prop_inv_apply_id; prop_tile_by_is_strip_mining ]

let suite =
  ( "layout",
    [
      Alcotest.test_case "flatten/unflatten" `Quick test_flatten_unflatten;
      Alcotest.test_case "shape validation" `Quick test_shape_validate;
      Alcotest.test_case "index enumeration" `Quick test_indices_order;
      Alcotest.test_case "sigma basics" `Quick test_sigma_basics;
      Alcotest.test_case "sigma validation" `Quick test_sigma_invalid;
      Alcotest.test_case "sigma composition" `Quick test_sigma_compose;
      Alcotest.test_case "RegP semantics" `Quick test_regp_semantics;
      Alcotest.test_case "RegP bijective for all sigmas" `Quick
        test_all_regp_bijective;
      Alcotest.test_case "figure 9 golden values" `Quick test_fig9_golden;
      Alcotest.test_case "equation 7 layout (figure 10)" `Quick test_eq7_layout;
      Alcotest.test_case "Triton grouped pid ordering" `Quick
        test_grouped_pid_ordering;
      Alcotest.test_case "Row/Col" `Quick test_row_col;
      Alcotest.test_case "interleave permutations" `Quick test_interleave;
      Alcotest.test_case "TileBy strip-mines" `Quick test_tile_by_strip_mines;
      Alcotest.test_case "TileOrderBy Col" `Quick test_tiled_view_col_major;
      Alcotest.test_case "full_dims" `Quick test_full_dims;
      Alcotest.test_case "anti-diagonal golden table" `Quick
        test_antidiag_golden;
      Alcotest.test_case "gallery bijections" `Quick test_gallery_bijective;
      Alcotest.test_case "morton golden" `Quick test_morton_golden;
      Alcotest.test_case "hilbert adjacency" `Quick test_hilbert_adjacency;
      Alcotest.test_case "table-driven pieces" `Quick test_of_table;
      Alcotest.test_case "gallery lookup" `Quick test_gallery_lookup;
      Alcotest.test_case "size mismatch rejected" `Quick
        test_size_mismatch_rejected;
      Alcotest.test_case "check reports the first violation" `Quick
        test_check_reports_first_violation;
      Alcotest.test_case "element count overflow rejected" `Quick
        test_element_count_overflow;
      Alcotest.test_case "exhaustive checks refuse huge counts" `Quick
        test_check_refuses_huge_counts;
      Alcotest.test_case "check occupancy is one byte per element" `Quick
        test_check_occupancy_is_bytes;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) props )
