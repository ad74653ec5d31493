(* Reference implementations kept as differential oracles: the library's
   direct layout printers, O(n) warp-access counters and staged static
   scorer replaced these, and the tests assert the replacements agree
   with them byte for byte and count for count. *)

module L = Lego_layout
module G = Lego_gpusim
module P = Lego_tune.Predict

(* ---- Format-based layout printers --------------------------------------- *)

let pp_list pp =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp

let pp_ints ppf l = Format.fprintf ppf "[%a]" (pp_list Format.pp_print_int) l
let pp_sigma ppf s = pp_ints ppf (L.Sigma.to_one_based s)

let pp_piece ppf = function
  | L.Piece.Gen { dims; name; _ } ->
    Format.fprintf ppf "GenP(%s%a)" name pp_ints dims
  | L.Piece.Reg { dims; sigma } ->
    Format.fprintf ppf "RegP(%a, %a)" pp_ints dims pp_sigma sigma

(* The subscript is the shared rank of the parts, when there is one. *)
let suffix ranks =
  match List.sort_uniq Int.compare ranks with
  | [ d ] -> string_of_int d
  | _ -> ""

let pp_order_by ppf o =
  let t = L.Order_by.pieces o in
  Format.fprintf ppf "OrderBy%s(%a)"
    (suffix (List.map L.Piece.rank t))
    (pp_list pp_piece) t

let pp_group_by ppf g =
  List.iter
    (fun o -> Format.fprintf ppf "%a." pp_order_by o)
    (L.Group_by.chain g);
  let shapes = L.Group_by.shapes g in
  Format.fprintf ppf "GroupBy%s(%a)"
    (suffix (List.map L.Shape.rank shapes))
    (pp_list pp_ints) shapes

(* One formatter per printer, reused across calls: [Format.asprintf]
   builds a fresh formatter each time, which dominates printing a
   stream of 10^5 layouts. *)
let to_string pp =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  fun x ->
    Buffer.clear buf;
    pp ppf x;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

let piece_to_string = to_string pp_piece
let order_by_to_string = to_string pp_order_by
let group_by_to_string = to_string pp_group_by

(* ---- Quadratic-scan warp-access counters -------------------------------- *)

let pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let k = ref 0 and v = ref x in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Distinct words by scanning the words seen so far; the per-bank
   degree array is indexed with bounds checks, so a negative word's
   negative remainder raises [Invalid_argument]. *)
let bank_cycles_arr (device : G.Device.t) ~elem_bytes addrs n =
  let nbanks = device.smem_banks and bb = device.smem_bank_bytes in
  let shift = if pow2 bb then log2 bb else -1 in
  let bmask = if pow2 nbanks then nbanks - 1 else -1 in
  let words = Array.make device.warp_size 0 in
  let degree = Array.make nbanks 0 in
  let nw = ref 0 in
  for k = 0 to n - 1 do
    let b = addrs.(k) * elem_bytes in
    let word = if shift >= 0 && b >= 0 then b lsr shift else b / bb in
    let dup = ref false in
    for i = 0 to !nw - 1 do
      if words.(i) = word then dup := true
    done;
    if not !dup then begin
      if !nw >= Array.length words then invalid_arg "Access: batch > warp";
      words.(!nw) <- word;
      incr nw;
      let bank =
        if bmask >= 0 && word >= 0 then word land bmask else word mod nbanks
      in
      degree.(bank) <- degree.(bank) + 1
    end
  done;
  Array.fold_left max 1 degree

let txn_count_arr (device : G.Device.t) ~elem_bytes addrs n =
  let tb = device.global_txn_bytes in
  let shift = if pow2 tb then log2 tb else -1 in
  let segs = Array.make device.warp_size 0 in
  let ns = ref 0 in
  for k = 0 to n - 1 do
    let b = addrs.(k) * elem_bytes in
    let seg = if shift >= 0 && b >= 0 then b lsr shift else b / tb in
    let dup = ref false in
    for i = 0 to !ns - 1 do
      if segs.(i) = seg then dup := true
    done;
    if not !dup then begin
      if !ns >= Array.length segs then invalid_arg "Access: batch > warp";
      segs.(!ns) <- seg;
      incr ns
    end
  done;
  !ns

(* ---- Static scorers ----------------------------------------------------- *)

let lanes_of (device : G.Device.t) f =
  List.filter_map f (List.init device.warp_size Fun.id)

(* Sum one phase at a time: [shared] returns a non-empty shared phase's
   bank cycles, [global] a non-empty global phase's transactions. *)
let fold_phases ~device ~ops ~shared ~global phases =
  List.fold_left
    (fun (acc : P.score) phase ->
      match phase with
      | P.Shared { elem_bytes; lanes } -> (
        match lanes_of device lanes with
        | [] -> acc
        | idxs ->
          {
            acc with
            smem_phases = acc.smem_phases + 1;
            smem_accesses = acc.smem_accesses + List.length idxs;
            smem_cycles = acc.smem_cycles + shared ~elem_bytes idxs;
          })
      | P.Global { elem_bytes; addrs } -> (
        match lanes_of device addrs with
        | [] -> acc
        | addrs ->
          { acc with gmem_txns = acc.gmem_txns + global ~elem_bytes addrs }))
    { P.smem_phases = 0; smem_accesses = 0; smem_cycles = 0; gmem_txns = 0; ops }
    phases

(* {!Lego_tune.Predict.score} by direct interpretation: every active
   lane's address through [Group_by.apply_ints], counted with the
   simulator's own [Access] arithmetic. *)
let interpret_score ?(device = G.Device.a100) ?ops g phases =
  let ops = match ops with Some n -> n | None -> P.decomposed_ops g in
  fold_phases ~device ~ops phases
    ~shared:(fun ~elem_bytes idxs ->
      G.Access.bank_cycles device ~elem_bytes
        (List.map (L.Group_by.apply_ints g) idxs))
    ~global:(fun ~elem_bytes addrs -> G.Access.txn_count device ~elem_bytes addrs)

(* The F₂ closed form of {!Lego_tune.Predict.score} on an affine-linear
   candidate ([None] otherwise).  A full-warp phase whose lane map is
   affine composes with the candidate's matrix and reads its conflict
   multiplicity off two ranks, and a full affine global warp counts
   [2^rank] segments ({!Oracle}); any other phase evaluates the
   candidate through its matrix and counts with [Access], so the score
   is exact in every case. *)
let closed_form_score ?(device = G.Device.a100) ?ops g phases =
  match Lego_f2.Linear.of_layout g with
  | None -> None
  | Some lin ->
    let ops = match ops with Some n -> n | None -> P.decomposed_ops g in
    let affine addrs =
      if List.length addrs = device.warp_size then
        Oracle.of_lanes (Array.of_list addrs)
      else None
    in
    let dims = L.Group_by.dims g in
    Some
      (fold_phases ~device ~ops phases
         ~shared:(fun ~elem_bytes idxs ->
           let flats = List.map (L.Shape.flatten_ints dims) idxs in
           match
             Option.bind (affine flats) (fun lane ->
                 Oracle.bank_cycles ~nbanks:device.smem_banks
                   ~bank_bytes:device.smem_bank_bytes ~elem_bytes
                   (fst (Oracle.compose_warp lin lane)))
           with
           | Some c -> c
           | None ->
             G.Access.bank_cycles device ~elem_bytes
               (List.map (Lego_f2.Linear.apply lin) flats))
         ~global:(fun ~elem_bytes addrs ->
           match
             Option.bind (affine addrs) (fun (a, _) ->
                 Oracle.txn_count ~txn_bytes:device.global_txn_bytes
                   ~elem_bytes a)
           with
           | Some t -> t
           | None -> G.Access.txn_count device ~elem_bytes addrs))
