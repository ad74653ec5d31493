module L = Lego_layout

let pick rng xs =
  match xs with
  | [] -> invalid_arg "Lgen.pick: empty list"
  | _ -> List.nth xs (Random.State.int rng (List.length xs))

(* All divisors of [n] (n is at most a few hundred here). *)
let divisors n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

(* Split [n] into exactly [k] factors (each >= 1), drawn at random. *)
let rec factorization rng n k =
  if k <= 1 then [ n ]
  else
    let d = pick rng (divisors n) in
    d :: factorization rng (n / d) (k - 1)

let log2_exact m =
  let rec go acc m =
    if m = 1 then Some acc else if m mod 2 = 0 then go (acc + 1) (m / 2) else None
  in
  if m <= 0 then None else go 0 m

(* A random piece covering exactly [m] elements.  Gallery pieces are only
   offered when [m] meets their shape constraint. *)
let gen_piece rng m =
  let sq = L.Domain.int_isqrt m in
  let square = sq * sq = m && sq >= 2 in
  let choices = ref [] in
  let add c = choices := c :: !choices in
  (* Strided permutations are always available (and twice as likely,
     matching their prevalence in real mappings). *)
  let regp () =
    let rank = 1 + Random.State.int rng 3 in
    let dims = factorization rng m rank in
    let sigma = pick rng (L.Sigma.all rank) in
    L.Piece.reg ~dims ~sigma
  in
  add regp;
  add regp;
  add (fun () ->
      let rank = 1 + Random.State.int rng 2 in
      L.Gallery.reverse (factorization rng m rank));
  if square then begin
    add (fun () -> L.Gallery.antidiag sq);
    add (fun () -> L.Gallery.cyclic_diag sq)
  end;
  (match log2_exact m with
  | Some bits when bits >= 2 ->
    add (fun () ->
        let cols_bits = 1 + Random.State.int rng (bits - 1) in
        L.Gallery.xor_swizzle
          ~rows:(m lsr cols_bits)
          ~cols:(1 lsl cols_bits));
    add (fun () ->
        (* Masked swizzle: any key mask below [cols] (including 0 and
           non-prefix masks) and a small row shift. *)
        let cols_bits = 1 + Random.State.int rng (bits - 1) in
        let cols = 1 lsl cols_bits in
        L.Gallery.xor_swizzle_masked
          ~rows:(m lsr cols_bits)
          ~cols
          ~mask:(Random.State.int rng cols)
          ~shift:(Random.State.int rng 3));
    if bits mod 2 = 0 then begin
      add (fun () -> L.Gallery.morton ~d:2 ~bits:(bits / 2));
      add (fun () -> L.Gallery.hilbert ~bits:(bits / 2))
    end
  | _ -> ());
  (pick rng !choices) ()

(* Split [n] into the piece element-counts of one OrderBy: one to three
   factors, dropping trivial factors of 1. *)
let split_pieces rng n =
  if n = 1 then [ 1 ]
  else
    let k = 1 + Random.State.int rng 3 in
    match List.filter (fun f -> f > 1) (factorization rng n k) with
    | [] -> [ n ]
    | fs -> fs

let gen_order_by rng n =
  L.Order_by.make (List.map (gen_piece rng) (split_pieces rng n))

(* The grouping hierarchy: one or two levels whose element counts multiply
   to [n], each level a shape of one or two extents. *)
let gen_shapes rng n =
  let levels = 1 + Random.State.int rng 2 in
  let level_numels =
    match List.filter (fun f -> f > 1) (factorization rng n levels) with
    | [] -> [ n ]
    | fs -> fs
  in
  List.map
    (fun m ->
      let rank = 1 + Random.State.int rng 2 in
      factorization rng m rank)
    level_numels

(* Element counts biased toward shapes the gallery pieces accept: powers
   of four for Morton/Hilbert, perfect squares for the diagonal orders,
   smooth composites for everything else.  All small enough to check
   exhaustively. *)
let gen_numel rng =
  match Random.State.int rng 4 with
  | 0 -> pick rng [ 16; 64; 256 ]
  | 1 -> pick rng [ 2; 3; 4; 5; 6 ] |> fun k -> k * k * pick rng [ 1; 2; 3 ]
  | 2 -> pick rng [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 12 ] * pick rng [ 1; 2; 3; 4; 6; 8 ]
  | _ -> 1 + Random.State.int rng 360

let layout_of_seed ~seed ~index =
  let rng = Random.State.make [| 0xC04F; seed; index |] in
  let n = gen_numel rng in
  let shapes = gen_shapes rng n in
  let chain_len = Random.State.int rng 4 in
  let chain = List.init chain_len (fun _ -> gen_order_by rng n) in
  L.Group_by.make ~chain shapes

(* ---- random layout-algebra terms ---------------------------------- *)

module A = L.Algebra

(* Split [bits] into exactly [rank] positive exponents. *)
let rec split_bits rng bits rank =
  if rank <= 1 then [ bits ]
  else
    let b = 1 + Random.State.int rng (bits - rank + 1) in
    b :: split_bits rng (bits - b) (rank - 1)

(* A random strided bijection on [2^bits] elements: a power-of-two shape
   under a random dimension permutation. *)
let gen_pow2_bijection rng bits =
  if bits = 0 then A.id 1
  else
    let rank = 1 + Random.State.int rng (min 3 bits) in
    let dims = List.map (fun b -> 1 lsl b) (split_bits rng bits rank) in
    let sigma = pick rng (L.Sigma.all rank) in
    match A.of_piece (L.Piece.reg ~dims ~sigma) with
    | Some l -> l
    | None -> assert false (* RegP pieces are always strided *)

(* A tile drawn from a random subset of [a]'s own modes.  Because [a] is
   a power-of-two bijection, any such subset satisfies the complement
   chain conditions, so [logical_divide a (sub_tile rng a)] is admissible
   by construction. *)
let sub_tile rng a =
  let modes =
    List.filter
      (fun (e, _) -> e > 1 && Random.State.bool rng)
      (List.combine (A.shape a) (A.stride a))
  in
  match modes with
  | [] -> A.id 1
  | _ -> A.make ~shape:(List.map fst modes) ~stride:(List.map snd modes)

(* One rewriting step.  Every candidate keeps the term a power-of-two
   bijection, so each operator's side conditions hold by construction;
   the [Error] fallbacks are defensive only. *)
let algebra_step rng a =
  match Random.State.int rng 3 with
  | 0 -> (
    (* Re-tile: divide by a sub-layout of [a]'s own modes. *)
    match A.logical_divide a (sub_tile rng a) with Ok l -> l | Error _ -> a)
  | 1 when A.size a <= 128 -> (
    (* Repeat the whole term across a fresh outer dimension. *)
    match A.logical_product a (A.id (pick rng [ 2; 4 ])) with
    | Ok l -> l
    | Error _ -> a)
  | 1 -> a
  | _ -> (
    (* Permute the domain by composing with a fresh bijection. *)
    match log2_exact (A.size a) with
    | Some bits -> (
      match A.compose a (gen_pow2_bijection rng bits) with
      | Ok l -> l
      | Error _ -> a)
    | None -> a)

let algebra_layout_of_seed ~seed ~index =
  let rng = Random.State.make [| 0xA16E; seed; index |] in
  let bits = 3 + Random.State.int rng 6 in
  (* 8 .. 256 elements *)
  let steps = Random.State.int rng 3 in
  let l =
    List.fold_left
      (fun a _ -> algebra_step rng a)
      (gen_pow2_bijection rng bits)
      (List.init steps Fun.id)
  in
  let piece =
    match A.to_piece l with
    | Ok p -> p
    | Error e ->
      (* Every step preserves bijectivity, so this cannot fire. *)
      invalid_arg
        (Format.asprintf "Lgen.algebra_layout_of_seed: %a" A.pp_error e)
  in
  (* A third of the stream routes the term through a gallery bijection at
     the piece level, exercising the composite (GenP) fallback. *)
  let piece =
    if Random.State.int rng 3 = 0 then
      match A.compose_pieces (gen_piece rng (L.Piece.numel piece)) piece with
      | Ok p -> p
      | Error _ -> piece
    else piece
  in
  L.Group_by.make ~chain:[ L.Order_by.make [ piece ] ] [ L.Piece.dims piece ]
