(* Reference implementations kept as differential oracles: the library's
   direct layout printers and O(n) warp-access counters replaced these,
   and the tests assert the replacements agree with them byte for byte
   and count for count. *)

module L = Lego_layout
module G = Lego_gpusim

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
