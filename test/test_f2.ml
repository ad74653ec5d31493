(* Tests for the GF(2) engine (lib/f2): bit-matrix algebra laws on
   seeded random matrices, exact agreement of the compiled piece/layout
   matrices with the reference interpreter over entire domains, the
   composition homomorphism, and the closed-form cost oracle against the
   simulator's own access arithmetic. *)

module L = Lego_layout
module F2 = Lego_f2
module G = Lego_gpusim

let pp_mat m = Format.asprintf "%a" F2.Bitmat.pp m

(* --- Random matrices ------------------------------------------------------ *)

let gen_mat ?rows ?cols () =
  let open QCheck2.Gen in
  let dim = function Some d -> pure d | None -> int_range 1 8 in
  dim rows >>= fun rows ->
  dim cols >>= fun cols ->
  list_repeat cols (int_bound ((1 lsl rows) - 1)) >|= fun cs ->
  F2.Bitmat.of_cols ~rows cs

let prop_rank_nullity =
  QCheck2.Test.make ~name:"rank + kernel dimension = column count" ~count:300
    ~print:pp_mat (gen_mat ())
    (fun m ->
      let k = F2.Bitmat.kernel m in
      List.for_all (fun v -> F2.Bitmat.apply m v = 0) k
      && F2.Bitmat.rank m + List.length k = F2.Bitmat.cols m
      &&
      (* Kernel vectors are independent: as columns they have full rank. *)
      (k = []
      || F2.Bitmat.rank (F2.Bitmat.of_cols ~rows:(F2.Bitmat.cols m) k)
         = List.length k))

let prop_image =
  QCheck2.Test.make ~name:"image is a rank-sized basis of the column space"
    ~count:300 ~print:pp_mat (gen_mat ())
    (fun m ->
      let im = F2.Bitmat.image m in
      let rows = F2.Bitmat.rows m in
      let span cs = F2.Bitmat.rank (F2.Bitmat.of_cols ~rows cs) in
      let mcols = List.init (F2.Bitmat.cols m) (F2.Bitmat.col m) in
      List.length im = F2.Bitmat.rank m
      && span im = List.length im
      && span (im @ mcols) = List.length im)

let prop_row_reduce =
  QCheck2.Test.make ~name:"row_reduce preserves rank and is idempotent"
    ~count:300 ~print:pp_mat (gen_mat ())
    (fun m ->
      let r = F2.Bitmat.row_reduce m in
      F2.Bitmat.rank r = F2.Bitmat.rank m
      && F2.Bitmat.equal (F2.Bitmat.row_reduce r) r)

let prop_inverse =
  QCheck2.Test.make ~name:"inverse iff full rank; inverse is two-sided"
    ~count:300 ~print:pp_mat
    QCheck2.Gen.(int_range 1 8 >>= fun n -> gen_mat ~rows:n ~cols:n ())
    (fun m ->
      let n = F2.Bitmat.cols m in
      match F2.Bitmat.inverse m with
      | None -> F2.Bitmat.rank m < n
      | Some mi ->
        F2.Bitmat.rank m = n
        && F2.Bitmat.equal (F2.Bitmat.mul m mi) (F2.Bitmat.identity n)
        && F2.Bitmat.equal (F2.Bitmat.mul mi m) (F2.Bitmat.identity n))

let prop_mul_is_composition =
  QCheck2.Test.make ~name:"mul composes apply" ~count:300
    ~print:(fun (a, b, x) -> Printf.sprintf "%s*%s @ %d" (pp_mat a) (pp_mat b) x)
    QCheck2.Gen.(
      int_range 1 6 >>= fun p ->
      int_range 1 6 >>= fun q ->
      int_range 1 6 >>= fun r ->
      gen_mat ~rows:p ~cols:q () >>= fun a ->
      gen_mat ~rows:q ~cols:r () >>= fun b ->
      int_bound ((1 lsl r) - 1) >|= fun x -> (a, b, x))
    (fun (a, b, x) ->
      F2.Bitmat.apply (F2.Bitmat.mul a b) x = F2.Bitmat.apply a (F2.Bitmat.apply b x))

let prop_transpose =
  QCheck2.Test.make ~name:"transpose swaps entries and is involutive"
    ~count:300 ~print:pp_mat (gen_mat ())
    (fun m ->
      let t = F2.Bitmat.transpose m in
      F2.Bitmat.rows t = F2.Bitmat.cols m
      && F2.Bitmat.cols t = F2.Bitmat.rows m
      && F2.Bitmat.equal (F2.Bitmat.transpose t) m
      && List.for_all
           (fun i ->
             List.for_all
               (fun j -> F2.Bitmat.get t j i = F2.Bitmat.get m i j)
               (List.init (F2.Bitmat.cols m) Fun.id))
           (List.init (F2.Bitmat.rows m) Fun.id))

(* --- Piece matrices vs the interpreter ------------------------------------ *)

let check_piece_exact piece =
  let dims = L.Piece.dims piece in
  let numel = L.Piece.numel piece in
  match F2.Linear.of_piece piece with
  | None ->
    Alcotest.failf "%s: expected a linear form"
      (Format.asprintf "%a" L.Piece.pp piece)
  | Some lin ->
    for x = 0 to numel - 1 do
      let want = L.Piece.apply_ints piece (L.Shape.unflatten_ints dims x) in
      let got = F2.Linear.apply lin x in
      if got <> want then
        Alcotest.failf "%s at %d: interpreter %d, F2 %d"
          (Format.asprintf "%a" L.Piece.pp piece)
          x want got
    done;
    Alcotest.(check bool)
      "piece matrix invertible (pieces are bijections)" true
      (F2.Linear.invertible lin)

let test_linear_pieces_entire_domain () =
  let pieces =
    List.map
      (fun sigma -> L.Piece.reg ~dims:[ 8; 4 ] ~sigma)
      (L.Sigma.all 2)
    @ List.map
        (fun sigma -> L.Piece.reg ~dims:[ 4; 2; 8 ] ~sigma)
        (L.Sigma.all 3)
    @ [
        L.Gallery.xor_swizzle ~rows:8 ~cols:8;
        L.Gallery.reverse [ 4; 8 ];
        L.Gallery.morton ~d:2 ~bits:3;
      ]
    @ List.concat_map
        (fun mask ->
          List.map
            (fun shift ->
              L.Gallery.xor_swizzle_masked ~rows:16 ~cols:8 ~mask ~shift)
            [ 0; 1; 2; 3 ])
        [ 0; 1; 3; 5; 7 ]
  in
  List.iter check_piece_exact pieces

let test_nonlinear_pieces_rejected () =
  let none piece =
    match F2.Linear.of_piece piece with
    | None -> ()
    | Some _ ->
      Alcotest.failf "%s: expected no linear form"
        (Format.asprintf "%a" L.Piece.pp piece)
  in
  (* Outside the family: non-power-of-two extents. *)
  none (L.Piece.reg ~dims:[ 3; 4 ] ~sigma:(L.Sigma.identity 2));
  none (L.Gallery.reverse [ 6 ]);
  (* In-range extents but non-linear maps. *)
  none (L.Gallery.antidiag 8);
  none (L.Gallery.cyclic_diag 8);
  none (L.Gallery.hilbert ~bits:3)

(* --- Whole layouts: agreement, invertibility, composition ----------------- *)

let gen_linear_layout =
  let open QCheck2.Gen in
  let rows = 8 and cols = 8 in
  oneofl (L.Sigma.all 2) >>= fun sigma ->
  int_bound (cols - 1) >>= fun mask ->
  int_bound 3 >>= fun shift ->
  bool >|= fun swizzled ->
  let base =
    L.Group_by.make
      ~chain:[ L.Order_by.make [ L.Piece.reg ~dims:[ rows; cols ] ~sigma ] ]
      [ [ rows; cols ] ]
  in
  if swizzled then
    L.Group_by.prepend
      (L.Order_by.make [ L.Gallery.xor_swizzle_masked ~rows ~cols ~mask ~shift ])
      base
  else base

let pp_layout g = Format.asprintf "%a" L.Group_by.pp g

let prop_layout_matrix_agrees =
  QCheck2.Test.make
    ~name:"layout matrix = interpreter on the whole domain; full rank"
    ~count:100 ~print:pp_layout gen_linear_layout
    (fun g ->
      match F2.Linear.of_layout g with
      | None -> false
      | Some lin ->
        F2.Linear.invertible lin
        && List.for_all
             (fun x ->
               F2.Linear.apply lin x
               = L.Group_by.apply_ints g (L.Shape.unflatten_ints (L.Group_by.dims g) x))
             (List.init (L.Group_by.numel g) Fun.id))

let test_composition_homomorphism () =
  let rows = 16 and cols = 8 in
  let o_sw mask shift =
    L.Order_by.make [ L.Gallery.xor_swizzle_masked ~rows ~cols ~mask ~shift ]
  in
  let o_reg sigma = L.Order_by.make [ L.Piece.reg ~dims:[ rows; cols ] ~sigma ] in
  let lin_of chain =
    Option.get
      (F2.Linear.of_layout (L.Group_by.make ~chain [ [ rows; cols ] ]))
  in
  List.iter
    (fun (o1, o2) ->
      let composed = lin_of [ o1; o2 ] in
      let via_mul = F2.Linear.compose (lin_of [ o1 ]) (lin_of [ o2 ]) in
      Alcotest.(check bool)
        "matrix of chain = product of stage matrices" true
        (F2.Linear.equal composed via_mul))
    [
      (o_sw 5 1, o_reg (L.Sigma.identity 2));
      (o_sw 7 0, o_sw 3 2);
      (o_reg (List.hd (List.rev (L.Sigma.all 2))), o_sw 6 1);
    ]

(* --- One stage compiler: the layout map is its composition ---------------- *)

let same_map a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> F2.Linear.equal a b
  | _ -> false

let gen_lgen_layout =
  let open QCheck2.Gen in
  bool >>= fun algebra ->
  int_bound 4999 >|= fun index ->
  if algebra then Lego_conform.Lgen.algebra_layout_of_seed ~seed:2027 ~index
  else Lego_conform.Lgen.layout_of_seed ~seed:2027 ~index

(* [of_layout (o :: rest) = compose (of_stage o) (of_layout rest)], and
   the map is [None] exactly when some stage has none (or, for the
   empty chain, when the element count is not a power of two). *)
let prop_layout_is_stage_composition =
  QCheck2.Test.make
    ~name:"of_layout = of_stage composed over the chain; None iff a stage is"
    ~count:300 ~print:pp_layout gen_lgen_layout
    (fun g ->
      let lin = F2.Linear.of_layout g in
      let numel = L.Group_by.numel g in
      match L.Group_by.chain g with
      | [] -> (
        match lin with
        | None -> numel land (numel - 1) <> 0
        | Some l ->
          1 lsl F2.Linear.bits l = numel
          && F2.Linear.equal l (F2.Linear.identity (F2.Linear.bits l)))
      | o :: rest as chain ->
        let tail =
          F2.Linear.of_layout (L.Group_by.make ~chain:rest (L.Group_by.shapes g))
        in
        same_map lin
          (match (F2.Linear.of_stage o, tail) with
          | Some s, Some t -> Some (F2.Linear.compose s t)
          | _ -> None)
        && Option.is_none lin
           = List.exists (fun o -> F2.Linear.of_stage o = None) chain)

(* Every F₂-linear candidate of the transpose slot's default and
   --composed spaces: the map must agree with the compiled closures the
   scorer evaluates, at every point of the tile. *)
let test_layout_map_matches_compiled () =
  let module T = Lego_tune in
  let slot = T.Slot.transpose_smem () in
  List.iter
    (fun composed ->
      let sp =
        T.Space.make ~composed ~rows:slot.T.Slot.rows ~cols:slot.T.Slot.cols ()
      in
      let linear = ref 0 in
      Seq.iter
        (fun g ->
          match F2.Linear.of_layout g with
          | None -> ()
          | Some lin ->
            incr linear;
            let c = T.Compiled.compile g in
            for x = 0 to T.Compiled.numel c - 1 do
              let want = T.Compiled.apply_flat c x in
              let got = F2.Linear.apply lin x in
              if got <> want then
                Alcotest.failf "%s at %d: compiled %d, F2 %d" (pp_layout g) x
                  want got
            done)
        (T.Space.stream sp);
      Alcotest.(check bool)
        (Printf.sprintf "composed %b: %d linear candidates" composed !linear)
        true (!linear > 500))
    [ false; true ]

(* --- The cost oracle vs the simulator's arithmetic ------------------------ *)

let gen_affine_warp =
  let open QCheck2.Gen in
  let lanes = 32 in
  let abits = 10 in
  list_repeat 5 (int_bound ((1 lsl abits) - 1)) >>= fun cs ->
  int_bound ((1 lsl abits) - 1) >>= fun a0 ->
  oneofl [ 1; 2; 4; 8 ] >|= fun elem_bytes ->
  let m = F2.Bitmat.of_cols ~rows:abits cs in
  (Array.init lanes (fun t -> F2.Bitmat.apply m t lxor a0), elem_bytes)

let prop_oracle_matches_access =
  QCheck2.Test.make
    ~name:"oracle rank formulas = Access counting on affine warps" ~count:300
    ~print:(fun (addrs, eb) ->
      Printf.sprintf "elem_bytes %d, addrs [%s]" eb
        (String.concat ";" (Array.to_list (Array.map string_of_int addrs))))
    gen_affine_warp
    (fun (addrs, elem_bytes) ->
      let device = G.Device.a100 in
      match Oracle.of_lanes addrs with
      | None -> false (* affine by construction; must be recognized *)
      | Some (a, _) ->
        let cyc =
          Option.get
            (Oracle.bank_cycles ~nbanks:device.G.Device.smem_banks
               ~bank_bytes:device.G.Device.smem_bank_bytes ~elem_bytes a)
        and txn =
          Option.get
            (Oracle.txn_count ~txn_bytes:device.G.Device.global_txn_bytes
               ~elem_bytes a)
        in
        let l = Array.to_list addrs in
        cyc = G.Access.bank_cycles device ~elem_bytes l
        && txn = G.Access.txn_count device ~elem_bytes l)

(* --- Batch evaluation through half tables ------------------------------- *)

(* The evaluator behind the tuner's per-map step: two half tables of
   column XORs must give [Linear.apply] at every point, for odd and even
   widths (the halves differ by one bit there), the empty width, and the
   extreme points 0 and 2^bits - 1; a point past the top is rejected. *)
let prop_apply_into =
  QCheck2.Test.make ~name:"apply_into (half tables) = apply" ~count:300
    ~print:(fun (lin, xs) ->
      Format.asprintf "%a at [%s]" F2.Linear.pp lin
        (String.concat ";" (Array.to_list (Array.map string_of_int xs))))
    QCheck2.Gen.(
      int_range 0 20 >>= fun bits ->
      let top = (1 lsl bits) - 1 in
      list_repeat bits (int_bound top) >>= fun cols ->
      int_bound top >>= fun c ->
      list_size (int_range 0 64) (int_bound top) >|= fun pts ->
      ( F2.Linear.make ~bits ~mat:(F2.Bitmat.of_cols ~rows:bits cols) ~c,
        Array.of_list (0 :: top :: pts) ))
    (fun (lin, xs) ->
      let out = Array.make (Array.length xs) (-1) in
      F2.Linear.apply_into lin xs out;
      let past = 1 lsl F2.Linear.bits lin in
      Array.for_all2 (fun x y -> y = F2.Linear.apply lin x) xs out
      && List.for_all
           (fun bad ->
             match F2.Linear.apply_into lin [| bad |] [| 0 |] with
             | exception Invalid_argument _ -> true
             | () -> false)
           [ past; -1 ])

let test_of_lanes_rejects_non_affine () =
  (* Identity on the probe basis, broken at the last lane: the verify
     sweep must catch it. *)
  let addrs = Array.init 32 (fun t -> if t = 31 then 0 else t) in
  Alcotest.(check bool) "non-affine rejected" true (Oracle.of_lanes addrs = None);
  (* And the unbroken pattern is accepted with zero constant. *)
  match Oracle.of_lanes (Array.init 32 Fun.id) with
  | Some (a, 0) -> Alcotest.(check int) "identity rank" 5 (F2.Bitmat.rank a)
  | _ -> Alcotest.fail "identity warp not recognized"

let suite =
  ( "f2",
    [
      Alcotest.test_case "linear pieces agree on entire domain" `Quick
        test_linear_pieces_entire_domain;
      Alcotest.test_case "nonlinear pieces rejected" `Quick
        test_nonlinear_pieces_rejected;
      Alcotest.test_case "chain composition = matrix product" `Quick
        test_composition_homomorphism;
      Alcotest.test_case "of_lanes verifies every lane" `Quick
        test_of_lanes_rejects_non_affine;
      Alcotest.test_case "layout map = compiled closures (tune spaces)" `Quick
        test_layout_map_matches_compiled;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [
          prop_rank_nullity;
          prop_image;
          prop_row_reduce;
          prop_inverse;
          prop_mul_is_composition;
          prop_transpose;
          prop_layout_matrix_agrees;
          prop_layout_is_stage_composition;
          prop_oracle_matches_access;
          prop_apply_into;
        ] )
