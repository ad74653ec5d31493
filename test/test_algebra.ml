(* The CuTe-style layout algebra: operator semantics, algebraic laws as
   QCheck2 properties, one deterministic rejection per side condition
   (pinned to its whole message), and [make]'s validation, including
   the image-range rule that keeps every side-condition check exact.

   The literal CuTe round-trip ((A / B) * B ~ A) is false in general —
   logical product replicates over the complement's order, not A's — so
   the properties below assert the laws that do hold: the tiler
   [concat (complement B n) B] is a bijection on [0, n), logical divide
   is exactly [A o tiler], and composing the divide with the tiler's
   inverse recovers A pointwise. *)

open Lego_layout
module A = Algebra

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_layout = function
  | Ok l -> l
  | Error e -> Alcotest.failf "unexpected failure: %a" A.pp_error e

let ok_piece = function
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected failure: %a" A.pp_error e

let check_rejection name cond message = function
  | Ok _ -> Alcotest.failf "%s: expected %S failure, got a layout" name cond
  | Error (e : A.error) ->
      Alcotest.(check string) name cond e.A.cond;
      Alcotest.(check string)
        (name ^ " message") message
        (Format.asprintf "%a" A.pp_error e)

(* --- generators ------------------------------------------------------- *)

let gen_pow2_extent = QCheck2.Gen.oneofl [ 1; 2; 2; 4; 4; 8 ]

let gen_shape =
  QCheck2.Gen.(int_range 1 3 >>= fun rank -> list_size (pure rank) gen_pow2_extent)

(* A random strided bijection on [0, numel shape): chain strides assigned
   in a random mode order. *)
let gen_bijection_of_shape shape =
  let open QCheck2.Gen in
  let rank = List.length shape in
  oneofl (Sigma.all rank) >>= fun sigma ->
  (* Physical order outermost-first: suffix products over permuted dims. *)
  let pdims = Sigma.permute sigma shape in
  let _, rev =
    List.fold_left
      (fun (acc, out) e -> (acc * e, acc :: out))
      (1, []) (List.rev pdims)
  in
  let lstr = Array.make rank 0 in
  List.iteri (fun k s -> lstr.(Sigma.apply sigma k) <- s) rev;
  pure (A.make ~shape ~stride:(Array.to_list lstr))

let gen_bijection = QCheck2.Gen.(gen_shape >>= gen_bijection_of_shape)

(* An arbitrary (possibly non-injective) layout. *)
let gen_layout =
  let open QCheck2.Gen in
  gen_shape >>= fun shape ->
  list_size (pure (List.length shape)) (oneofl [ 0; 1; 2; 3; 4; 8; 16 ])
  >>= fun stride -> pure (A.make ~shape ~stride)

(* A layout whose complement is defined: a random sub-chain of a random
   bijection on [0, m). *)
let gen_complementable =
  let open QCheck2.Gen in
  gen_bijection >>= fun full ->
  let modes = List.combine (A.shape full) (A.stride full) in
  list_size (pure (List.length modes)) bool >>= fun keep ->
  let kept =
    List.filteri (fun i _ -> List.nth keep i) modes
    |> List.filter (fun (e, _) -> e > 1)
  in
  let sub =
    match kept with
    | [] -> A.id 1
    | kept ->
        A.make ~shape:(List.map fst kept) ~stride:(List.map snd kept)
  in
  pure (sub, A.size full)

let prop name ?(count = 200) gen f = QCheck2.Test.make ~name ~count gen f

(* --- deterministic operator semantics --------------------------------- *)

let test_worked_example () =
  (* The DESIGN/README worked example: dividing the row-major 8x4 layout
     by a column tile (4):(4) — one matrix column per tile. *)
  let a = A.row [ 8; 4 ] in
  let b = A.make ~shape:[ 4 ] ~stride:[ 4 ] in
  check_int "size" 32 (A.size a);
  let d = ok_layout (A.logical_divide a b) in
  check_int "divide preserves size" 32 (A.size d);
  (* The inner mode walks one column of A (stride 4 in the row-major
     image); the outer modes enumerate the remaining columns and rows. *)
  check_int "tile step 0" 0 (A.apply_int d 0);
  check_int "tile step 1" 4 (A.apply_int d 1);
  check_int "tile step 2" 8 (A.apply_int d 2);
  check_int "tile step 3" 12 (A.apply_int d 3);
  check_int "next tile starts at the next column" 1 (A.apply_int d 4)

let test_complement_example () =
  let a = A.make ~shape:[ 4 ] ~stride:[ 8 ] in
  let c = ok_layout (A.complement a 32) in
  check_bool "complement of (4):(8) in 32" true
    (A.equal c (A.make ~shape:[ 8 ] ~stride:[ 1 ]));
  let t = ok_layout (A.tiler a 32) in
  check_bool "tiler is a bijection" true (A.is_bijection t)

let test_product_transpose () =
  (* concat ((complement a 4) o b) a for a=(2):(2), b=(2):(1) is the
     column-major 2x2 layout — the worked example of the summary docs. *)
  let a = A.make ~shape:[ 2 ] ~stride:[ 2 ] in
  let b = A.id 2 in
  let p = ok_layout (A.logical_product a b) in
  check_bool "product is the transpose" true
    (A.equal p (A.make ~shape:[ 2; 2 ] ~stride:[ 1; 2 ]))

let test_coalesce () =
  let t = A.make ~shape:[ 2; 2; 3; 1 ] ~stride:[ 6; 3; 1; 0 ] in
  check_bool "merge chained modes" true (A.equal (A.coalesce t) (A.id 12));
  check_bool "coalesce preserves semantics" true (A.equivalent t (A.coalesce t))

(* --- QCheck2 laws ----------------------------------------------------- *)

let prop_right_identity =
  prop "A o id(size A) = A" gen_layout (fun a ->
      let c = ok_layout (A.compose a (A.id (A.size a))) in
      A.equivalent a c)

let prop_compose_assoc =
  prop "composition is associative (pow2 bijections)"
    QCheck2.Gen.(
      gen_shape >>= fun shape ->
      triple
        (gen_bijection_of_shape shape)
        (gen_bijection_of_shape shape)
        (gen_bijection_of_shape shape))
    (fun (a, b, c) ->
      let ab = ok_layout (A.compose a b) in
      let bc = ok_layout (A.compose b c) in
      let l = ok_layout (A.compose ab c) in
      let r = ok_layout (A.compose a bc) in
      A.equivalent l r)

let prop_compose_semantics =
  prop "compose agrees with function composition"
    QCheck2.Gen.(
      gen_shape >>= fun shape ->
      pair (gen_bijection_of_shape shape) (gen_bijection_of_shape shape))
    (fun (a, b) ->
      let ab = ok_layout (A.compose a b) in
      A.size ab = A.size b
      && List.for_all
           (fun x -> A.apply_int ab x = A.apply_int a (A.apply_int b x))
           (List.init (A.size b) Fun.id))

let prop_complement_exact_cover =
  prop "complement is disjoint from A and covers [0, m)" gen_complementable
    (fun (a, m) ->
      let c = ok_layout (A.complement a m) in
      let seen = Array.make m false in
      let ok = ref (A.size a * A.size c = m) in
      for i = 0 to A.size a - 1 do
        for j = 0 to A.size c - 1 do
          let off = A.apply_int a i + A.apply_int c j in
          if off < 0 || off >= m || seen.(off) then ok := false
          else seen.(off) <- true
        done
      done;
      !ok && Array.for_all Fun.id seen)

let prop_tiler_bijection =
  prop "tiler B m is a bijection on [0, m)" gen_complementable (fun (b, m) ->
      let t = ok_layout (A.tiler b m) in
      A.is_bijection t
      &&
      let seen = Array.make m false in
      List.for_all
        (fun x ->
          let y = A.apply_int t x in
          y >= 0 && y < m && not seen.(y) && (seen.(y) <- true; true))
        (List.init m Fun.id))

let prop_divide_is_compose_tiler =
  prop "A / B = A o tiler(B, size A), and undoing the tiler recovers A"
    QCheck2.Gen.(
      gen_bijection >>= fun a ->
      gen_shape >>= fun bshape ->
      gen_bijection_of_shape bshape >>= fun b -> pure (a, b))
    (fun (a, b) ->
      QCheck2.assume (A.size a mod A.size b = 0);
      let d = ok_layout (A.logical_divide a b) in
      let t = ok_layout (A.tiler b (A.size a)) in
      List.for_all
        (fun x -> A.apply_int d x = A.apply_int a (A.apply_int t x))
        (List.init (A.size a) Fun.id)
      &&
      match A.inverse t with
      | None -> false
      | Some t_inv ->
          let back = ok_layout (A.compose d t_inv) in
          A.equivalent back a)

let prop_product_replicates =
  prop "tiler B n = logical_product B (id (n / size B))" gen_complementable
    (fun (b, m) ->
      QCheck2.assume (A.size b >= 1 && m mod A.size b = 0);
      let t = ok_layout (A.tiler b m) in
      let p = ok_layout (A.logical_product b (A.id (m / A.size b))) in
      A.equivalent t p)

let prop_inverse =
  prop "inverse undoes a bijection" gen_bijection (fun l ->
      match A.inverse l with
      | None -> false
      | Some inv ->
          List.for_all
            (fun x -> A.apply_int inv (A.apply_int l x) = x)
            (List.init (A.size l) Fun.id))

let prop_piece_roundtrip =
  prop "to_piece / of_piece preserve the flat function" gen_bijection (fun l ->
      let p = match A.to_piece l with
        | Ok p -> p
        | Error e -> Alcotest.failf "to_piece: %a" A.pp_error e
      in
      let back = match A.of_piece p with
        | Some b -> b
        | None -> Alcotest.fail "of_piece: not strided"
      in
      A.equivalent l back
      && List.for_all
           (fun x ->
             let idx = Shape.unflatten_ints (Piece.dims p) x in
             Piece.apply_ints p idx = A.apply_int l x)
           (List.init (A.size l) Fun.id))

let prop_compose_pieces =
  prop "compose_pieces is function composition (strided or composite)"
    QCheck2.Gen.(
      gen_shape >>= fun shape ->
      pair (gen_bijection_of_shape shape) (gen_bijection_of_shape shape))
    (fun (la, lb) ->
      let a = ok_piece (A.to_piece la) and b = ok_piece (A.to_piece lb) in
      let c = ok_piece (A.compose_pieces a b) in
      Piece.numel c = Piece.numel b
      && List.for_all
           (fun x ->
             let expect =
               A.apply_int la (A.apply_int lb x)
             in
             let idx = Shape.unflatten_ints (Piece.dims c) x in
             Piece.apply_ints c idx = expect
             && Shape.flatten_ints (Piece.dims c) (Piece.inv_ints c expect) = x)
           (List.init (Piece.numel b) Fun.id))

(* --- rejection per side condition ------------------------------------- *)

let test_rejections () =
  (* Left-divisibility: B's stride 2 cannot split the extent-3 mode. *)
  check_rejection "left-divisibility" "left-divisibility"
    "o: unproven side condition \"left-divisibility\": stride 2 must divide \
     the mode extent 3 of (2,3):(3,1) it splits"
    (A.compose (A.row [ 2; 3 ]) (A.make ~shape:[ 2 ] ~stride:[ 2 ]));
  (* Size: B's image walks outside A's domain. *)
  check_rejection "compose size" "size"
    "o: unproven side condition \"size\": image of (2):(4) must lie within \
     the domain [0,4) of (4):(1)"
    (A.compose (A.id 4) (A.make ~shape:[ 2 ] ~stride:[ 4 ]));
  (* Injectivity: stride-0 mode with extent > 1 has no complement. *)
  check_rejection "injectivity" "injectivity"
    "complement: unproven side condition \"injectivity\": stride 0 of \
     (2):(0) is not positive"
    (A.complement (A.make ~shape:[ 2 ] ~stride:[ 0 ]) 4);
  (* Disjointness: block of size 2 at stride 1 overlaps stride 3. *)
  check_rejection "disjointness" "disjointness"
    "complement: unproven side condition \"disjointness\": accumulated block \
     size 2 must divide the next stride 3 of (2,2):(3,1)"
    (A.complement (A.make ~shape:[ 2; 2 ] ~stride:[ 3; 1 ]) 12);
  (* Coverage: a block of 4 cannot tile a codomain of 6. *)
  check_rejection "coverage" "coverage"
    "complement: unproven side condition \"coverage\": final block size 4 of \
     (4):(1) must divide the codomain size 6"
    (A.complement (A.id 4) 6);
  (* Bijectivity: (2):(2) misses every odd offset. *)
  check_rejection "bijectivity" "bijectivity"
    "to_piece: unproven side condition \"bijectivity\": stride 2 of (2):(2) \
     must equal the accumulated block size 1"
    (A.to_piece (A.make ~shape:[ 2 ] ~stride:[ 2 ]));
  (* Divide size: a tile of 3 cannot divide 8 elements. *)
  check_rejection "divide size" "size"
    "divide: unproven side condition \"size\": tile size 3 of (3):(1) must \
     divide the size 8 of (4,2):(2,1)"
    (A.logical_divide (A.row [ 4; 2 ]) (A.id 3));
  (* Regression: a stride-0 mode keeps the codomain 2^31 * 1 in range,
     but the product's element count 2^31 * 2^32 is not; it raised
     [Invalid_argument] out of the operator. *)
  check_rejection "product element count" "size"
    "product: unproven side condition \"size\": element count 2147483648 * \
     4294967296 (the sizes of (2147483648):(1) and (4294967296):(0)) exceeds \
     the int range"
    (A.logical_product
       (A.make ~shape:[ 2147483648 ] ~stride:[ 1 ])
       (A.make ~shape:[ 4294967296 ] ~stride:[ 0 ]));
  (* Piece composition: element counts must agree. *)
  check_rejection "piece size" "size"
    "o: unproven side condition \"size\": piece element counts must agree (4 \
     vs 2)"
    (A.compose_pieces
       (Piece.reg ~dims:[ 4 ] ~sigma:(Sigma.identity 1))
       (Piece.reg ~dims:[ 2 ] ~sigma:(Sigma.identity 1)))

let test_gen_fallback () =
  (* Composing through a gallery GenP cannot stay strided: the result is
     a composite GenP that still evaluates in every domain. *)
  let sw = Gallery.xor_swizzle ~rows:4 ~cols:4 in
  let tile = Piece.reg ~dims:[ 4; 4 ] ~sigma:(Sigma.reversal 2) in
  let c =
    match A.compose_pieces sw tile with
    | Ok p -> p
    | Error e -> Alcotest.failf "compose_pieces: %a" A.pp_error e
  in
  (match c with
  | Piece.Gen _ -> ()
  | Piece.Reg _ -> Alcotest.fail "expected a composite GenP");
  for x = 0 to 15 do
    let idx = Shape.unflatten_ints (Piece.dims c) x in
    let expect =
      Piece.apply_ints sw
        (Shape.unflatten_ints (Piece.dims sw) (Piece.apply_ints tile idx))
    in
    check_int "composite apply" expect (Piece.apply_ints c idx);
    check_int "composite inv" x
      (Shape.flatten_ints (Piece.dims c) (Piece.inv_ints c expect))
  done

let test_make_validation () =
  Alcotest.check_raises "negative stride"
    (Invalid_argument "Algebra.make: negative stride") (fun () ->
      ignore (A.make ~shape:[ 2 ] ~stride:[ -1 ]));
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Algebra.make: shape/stride rank mismatch") (fun () ->
      ignore (A.make ~shape:[ 2 ] ~stride:[ 1; 2 ]));
  (* Regression: operators formed products of a mode's extent and stride
     that wrapped, so a layout with no negative stride was refused as
     having one, and side conditions were checked on wrapped values.
     [make] refuses an image outside the int range: a mode's extent *
     stride (8 * 2^60 = 2^63), or a cosize (1 + 2 * 2^60 + 2 * 2^60 =
     2^62 + 1) whose every mode fits. *)
  let big = 1 lsl 60 in
  Alcotest.check_raises "mode past the int range"
    (Invalid_argument
       "Algebra.make: the image of (8):(1152921504606846976) exceeds the int \
        range") (fun () -> ignore (A.make ~shape:[ 8 ] ~stride:[ big ]));
  Alcotest.check_raises "cosize past the int range"
    (Invalid_argument
       "Algebra.make: the image of (3,3):(1152921504606846976,\
        1152921504606846976) exceeds the int range") (fun () ->
      ignore (A.make ~shape:[ 3; 3 ] ~stride:[ big; big ]));
  Alcotest.check_raises "concat past the int range"
    (Invalid_argument
       "Algebra.make: the image of (3,3):(1152921504606846976,\
        1152921504606846976) exceeds the int range") (fun () ->
      let a = A.make ~shape:[ 3 ] ~stride:[ big ] in
      ignore (A.concat a a))

let suite =
  ( "algebra",
    [
      Alcotest.test_case "worked divide example" `Quick test_worked_example;
      Alcotest.test_case "complement example" `Quick test_complement_example;
      Alcotest.test_case "product transpose" `Quick test_product_transpose;
      Alcotest.test_case "coalesce" `Quick test_coalesce;
      Alcotest.test_case "per-condition rejections" `Quick test_rejections;
      Alcotest.test_case "GenP composite fallback" `Quick test_gen_fallback;
      Alcotest.test_case "make validation" `Quick test_make_validation;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [
          prop_right_identity;
          prop_compose_assoc;
          prop_compose_semantics;
          prop_complement_exact_cover;
          prop_tiler_bijection;
          prop_divide_is_compose_tiler;
          prop_product_replicates;
          prop_inverse;
          prop_piece_roundtrip;
          prop_compose_pieces;
        ] )
