module L = Lego_layout

type t = {
  rows : int;
  cols : int;
  seed : int;
  composed : bool;
  scale : bool;
}

let make ?(seed = 0) ?(composed = false) ?(elem_bytes = 4) ?(scale = false)
    ~rows ~cols () =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Space.make: extents must be positive";
  if elem_bytes <= 0 then
    invalid_arg "Space.make: elem_bytes must be positive";
  { rows; cols; seed; composed; scale }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let k = ref 0 in
  let v = ref n in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* A candidate is always the plain 2-D logical view over some reordering
   chain, so every consumer can address it as [apply_ints g [i; j]]. *)
let view2 sp chain = L.Group_by.make ~chain [ [ sp.rows; sp.cols ] ]

let of_piece sp p = view2 sp [ L.Order_by.make [ p ] ]

(* Seeded in-family shuffling.  Seed 0 is the canonical order (cheap,
   conflict-free-first families lead); any other seed permutes each
   family with a stream derived only from [(seed, tag)], so the space is
   a pure function of the seed — never of timing or of traversal
   interleaving. *)
let shuffle sp ~tag xs =
  if sp.seed = 0 then xs
  else begin
    let st = Random.State.make [| sp.seed; Hashtbl.hash tag |] in
    let arr = Array.of_list xs in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list arr
  end

let has_gen g =
  List.exists
    (fun o ->
      List.exists
        (function L.Piece.Gen _ -> true | L.Piece.Reg _ -> false)
        (L.Order_by.pieces o))
    (L.Group_by.chain g)

(* Sigma roots: one RegP over the full 2-D space per permutation. *)
let sigma_roots sp =
  List.map
    (fun sigma ->
      of_piece sp (L.Piece.reg ~dims:[ sp.rows; sp.cols ] ~sigma))
    (L.Sigma.all 2)

(* Gallery roots: the paper's named bijections, where the shape admits
   them. *)
let gallery_roots sp =
  let square = sp.rows = sp.cols in
  let pow2 = square && is_pow2 sp.rows && sp.rows > 1 in
  List.concat
    [
      (if square then [ of_piece sp (L.Gallery.antidiag sp.rows) ] else []);
      (if square then [ of_piece sp (L.Gallery.cyclic_diag sp.rows) ] else []);
      [ of_piece sp (L.Gallery.reverse [ sp.rows; sp.cols ]) ];
      (if pow2 then
         let bits = ref 0 and m = ref sp.rows in
         while !m > 1 do
           incr bits;
           m := !m / 2
         done;
         [
           of_piece sp (L.Gallery.morton ~d:2 ~bits:!bits);
           of_piece sp (L.Gallery.hilbert ~bits:!bits);
         ]
       else []);
    ]

(* Algebra-built composite roots: a masked XOR swizzle composed — at the
   piece level, through the prover-discharged layout algebra — with the
   logical divide of the row-major space by a column tile.  The row tile
   [(cols):(1)] divides to the identity, so its composites are the plain
   swizzles routed through the algebra; the column tiles [(ri):(cols)]
   interleave sub-columns under the swizzle.  A bare divided layout
   without a GenP piece is a base like any other, and {!sampled} crosses
   it with the sampled swizzles; no swizzle stacks on the rest. *)
let composed sp =
  if (not sp.composed) || (not (is_pow2 sp.cols)) || sp.cols = 1 then []
  else begin
    let module A = L.Algebra in
    let module D = Lego_symbolic.Discharge in
    let get what = function
      | Ok v -> v
      | Error e ->
        invalid_arg
          (Format.asprintf "Space.composed (%s): %a" what A.pp_error e)
    in
    let a = A.row [ sp.rows; sp.cols ] in
    let tile_piece tile =
      get "divide" (Result.bind (D.logical_divide a tile) D.to_piece)
    in
    let tiles =
      A.make ~shape:[ sp.cols ] ~stride:[ 1 ]
      :: List.filter_map
           (fun ri ->
             if ri > 1 && sp.rows mod ri = 0 then
               Some (A.make ~shape:[ ri ] ~stride:[ sp.cols ])
             else None)
           [ 2; 4 ]
    in
    let masks =
      List.filter
        (fun m -> m > 0)
        (List.sort_uniq compare
           [ sp.cols - 1; (sp.cols - 1) / 2; (sp.cols - 1) / 4 ])
    in
    List.concat_map
      (fun tile ->
        let tp = tile_piece tile in
        (* The bare divided layout, then its swizzled composites. *)
        of_piece sp tp
        :: List.concat_map
             (fun mask ->
               List.map
                 (fun shift ->
                   let swz =
                     L.Gallery.xor_swizzle_masked ~rows:sp.rows ~cols:sp.cols
                       ~mask ~shift
                   in
                   of_piece sp (get "compose" (D.compose_pieces swz tp)))
                 [ 0; 1 ])
             masks)
      tiles
  end

(* Non-trivial factorizations [outer * inner = n, both > 1]. *)
let divisor_pairs n =
  let rec go d acc =
    if d > n / 2 then List.rev acc
    else go (d + 1) (if n mod d = 0 then (d, n / d) :: acc else acc)
  in
  go 2 []

(* Two-level tilings of the space: [TileOrderBy(P_outer, P_inner)] over
   every non-trivial divisor split of each extent and every sigma pair. *)
let tilings sp =
  let rows_splits = divisor_pairs sp.rows and cols_splits = divisor_pairs sp.cols in
  let sigmas = L.Sigma.all 2 in
  List.concat_map
    (fun (ro, ri) ->
      List.concat_map
        (fun (co, ci) ->
          List.concat_map
            (fun so ->
              List.map
                (fun si ->
                  view2 sp
                    (L.Sugar.tile_order_by
                       [
                         L.Piece.reg ~dims:[ ro; co ] ~sigma:so;
                         L.Piece.reg ~dims:[ ri; ci ] ~sigma:si;
                       ]))
                sigmas)
            sigmas)
        cols_splits)
    rows_splits

(* The number of bits indexing [0 .. n-1]. *)
let num_bits n = if n <= 1 then 0 else log2 (n - 1) + 1

(* The full masked-swizzle grid for this shape: every legal mask crossed
   with every shift that can still reach a row bit (larger shifts clear
   the key entirely, i.e. repeat mask = 0). *)
let swizzle_family sp =
  if (not (is_pow2 sp.cols)) || sp.cols = 1 then []
  else begin
    let shifts = max 1 (num_bits sp.rows) in
    List.concat_map
      (fun shift -> List.init sp.cols (fun mask -> (mask, shift)))
      (List.init shifts Fun.id)
  end

(* The sampled swizzle family: prefix masks only, widest (the classic
   full-column swizzle) first, each with shifts 0..2, so a tiny budget
   meets the known-good layout early. *)
let sampled_swizzles sp =
  if (not (is_pow2 sp.cols)) || sp.cols = 1 then []
  else begin
    let rec masks m = if m < 1 then [] else m :: masks (m / 2) in
    List.concat_map
      (fun mask -> List.map (fun shift -> (mask, shift)) [ 0; 1; 2 ])
      (masks (sp.cols - 1))
  end

(* [base] crossed with a swizzle list: each [(mask, shift)] prepends a
   [swizzlex] GenP as the outermost reordering. *)
let swizzled sp pairs base =
  Seq.map
    (fun (mask, shift) ->
      L.Group_by.prepend
        (L.Order_by.make
           [
             L.Gallery.xor_swizzle_masked ~rows:sp.rows ~cols:sp.cols ~mask
               ~shift;
           ])
        base)
    (List.to_seq pairs)

(* ---- Streaming enumeration (the mega-space path) ----------------------

   Everything below generates candidates {e lazily}: the full scale
   product space (10^5-10^6 layouts on the matmul shape) is never
   materialized — the consumer pulls candidates one at a time, and the
   only per-space state is the 16-byte-digest dedup set.  The sequence
   is a pure function of the space record: re-traversing a stream from
   the start rebuilds a fresh dedup table inside the outer thunk, so
   every traversal yields the identical sequence. *)

(* The default space: the roots, then every swizzle-free base crossed
   with the sampled swizzles, in a fixed order — each sigma root's
   swizzles followed by the tilings, then the swizzles of the
   swizzle-free composed roots, then each tiling's swizzles.  The
   tilings follow {e each} sigma root; the dedup wrapper drops the
   second copy.  A budget-truncated search scores a prefix of this
   order, so it is part of the determinism contract. *)
let sampled sp () =
  let l = List.to_seq in
  let pairs = shuffle sp ~tag:"swizzles" (sampled_swizzles sp) in
  let swizzles g = if has_gen g then Seq.empty else swizzled sp pairs g in
  let sigmas = shuffle sp ~tag:"roots" (sigma_roots sp) in
  let composed = shuffle sp ~tag:"composed" (composed sp) in
  let tilings = l (shuffle sp ~tag:"tilings" (tilings sp)) in
  Seq.concat
    (l
       [
         l (sigmas @ shuffle sp ~tag:"gallery" (gallery_roots sp) @ composed);
         Seq.concat_map (fun g -> Seq.append (swizzles g) tilings) (l sigmas);
         Seq.concat_map swizzles (l composed);
         Seq.concat_map swizzles tilings;
       ])
    ()

(* Ordered factorizations of [n] into exactly [k] factors, all > 1
   (level-major: the head is the outermost tile extent). *)
let rec factorizations n k =
  if k <= 1 then if n > 1 then [ [ n ] ] else []
  else
    List.concat_map
      (fun (d, rest) ->
        List.map (fun f -> d :: f) (factorizations rest (k - 1)))
      (divisor_pairs n)

(* Three-level tilings: [TileOrderBy(P1, P2, P3)] over every ordered
   3-factorization of each extent and every sigma triple — the deep
   hierarchy axis of the scale space. *)
let deep_tilings sp =
  let sigmas = L.Sigma.all 2 in
  List.concat_map
    (fun rf ->
      List.concat_map
        (fun cf ->
          let levels = List.combine rf cf in
          List.concat_map
            (fun s1 ->
              List.concat_map
                (fun s2 ->
                  List.map
                    (fun s3 ->
                      view2 sp
                        (L.Sugar.tile_order_by
                           (List.map2
                              (fun (r, c) s -> L.Piece.reg ~dims:[ r; c ] ~sigma:s)
                              levels [ s1; s2; s3 ])))
                    sigmas)
                sigmas)
            sigmas)
        (factorizations sp.cols 3))
    (factorizations sp.rows 3)

(* Vectorization-width tilings: one dimension split off as a contiguous
   innermost vector ([1; v] along columns, [w; 1] along rows) under each
   outer sigma — the register/LDGSTS-width axis.  [tilings] never emits
   these (it requires both extents of a level to be non-trivial). *)
let vector_tilings sp =
  let sigmas = L.Sigma.all 2 in
  let id2 = L.Sigma.identity 2 in
  let widths n = List.map fst (divisor_pairs n) in
  List.concat_map
    (fun v ->
      List.map
        (fun so ->
          view2 sp
            (L.Sugar.tile_order_by
               [
                 L.Piece.reg ~dims:[ sp.rows; sp.cols / v ] ~sigma:so;
                 L.Piece.reg ~dims:[ 1; v ] ~sigma:id2;
               ]))
        sigmas)
    (widths sp.cols)
  @ List.concat_map
      (fun w ->
        List.map
          (fun so ->
            view2 sp
              (L.Sugar.tile_order_by
                 [
                   L.Piece.reg ~dims:[ sp.rows / w; sp.cols ] ~sigma:so;
                   L.Piece.reg ~dims:[ w; 1 ] ~sigma:id2;
                 ]))
          sigmas)
      (widths sp.rows)

(* The scale product axes: every swizzle-free base (sigma roots,
   two-level, three-level and vectorization tilings) crossed with the
   {e full} masked-swizzle grid (every mask >= 1, every shift — not the
   prefix-mask sample {!sampled} takes).  Generated lazily base by
   base; overlaps with the default space are removed by the dedup
   wrapper downstream.  Mask 0 is excluded: it prepends a stage that is
   the identity map under a new name, a structural near-duplicate with
   no cost signal. *)
let scale_stream sp =
  if not sp.scale then Seq.empty
  else begin
    let bases =
      shuffle sp ~tag:"scale-bases"
        (sigma_roots sp @ tilings sp @ deep_tilings sp @ vector_tilings sp)
    in
    let pairs =
      shuffle sp ~tag:"scale-grid"
        (List.filter (fun (mask, _) -> mask > 0) (swizzle_family sp))
    in
    Seq.concat_map
      (fun base -> Seq.cons base (swizzled sp pairs base))
      (List.to_seq bases)
  end

(* Digest-keyed deduplication.  The table lives inside the outermost
   thunk: each traversal-from-the-start gets a fresh table (so streams
   are re-traversable), while a partially consumed tail continues with
   the table its traversal built.  Keys are {!Fingerprint.digest} — 16
   bytes per distinct candidate, the only O(space)-sized state of a
   streaming search. *)
let dedup seq =
  fun () ->
    let seen = Hashtbl.create 1024 in
    let rec go s () =
      match s () with
      | Seq.Nil -> Seq.Nil
      | Seq.Cons (g, tl) ->
        let d = Fingerprint.digest g in
        if Hashtbl.mem seen d then go tl ()
        else begin
          Hashtbl.add seen d ();
          Seq.Cons (g, go tl)
        end
    in
    go seq ()

let stream sp = dedup (Seq.append (sampled sp) (scale_stream sp))

let count sp = Seq.length (stream sp)
let closure sp = List.of_seq (stream sp)
