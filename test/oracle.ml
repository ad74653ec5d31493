(* The closed-form F₂ cost oracle: the test suite's exactness reference
   for affine warp access patterns (see oracle.mli). *)

open Lego_f2

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let k = ref 0 in
  let v = ref n in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

let bits_needed v =
  let k = ref 0 in
  let x = ref v in
  while !x > 0 do
    incr k;
    x := !x lsr 1
  done;
  max 1 !k

let of_lanes addrs =
  let n = Array.length addrs in
  if n = 0 || not (is_pow2 n) || Array.exists (fun a -> a < 0) addrs then None
  else begin
    let lbits = log2 n in
    let a0 = addrs.(0) in
    let cols = List.init lbits (fun k -> addrs.(1 lsl k) lxor a0) in
    let hi = List.fold_left ( lor ) a0 cols in
    let rows = bits_needed hi in
    let mat = Bitmat.of_cols ~rows cols in
    let ok = ref true in
    for t = 0 to n - 1 do
      if Bitmat.apply mat t lxor a0 <> addrs.(t) then ok := false
    done;
    if !ok then Some (mat, a0) else None
  end

let compose_warp lay (l, x0) =
  let bits = Linear.bits lay in
  if Bitmat.rows l > bits then
    invalid_arg "Oracle.compose_warp: lane map wider than the layout";
  (* Widen the lane map to the layout's bit width (high rows zero). *)
  let l =
    if Bitmat.rows l = bits then l
    else
      Bitmat.of_cols ~rows:bits
        (List.init (Bitmat.cols l) (fun j -> Bitmat.col l j))
  in
  (Bitmat.mul (Linear.mat lay) l, Linear.apply lay x0)

(* Address bits map to word bits by [word = (addr * elem_bytes) /
   word_bytes]: bit [i] of the word is bit [i + shift] of the address
   with [shift = log2 word_bytes - log2 elem_bytes] (negative shift =
   sub-byte-packed elements widen the word map with zero rows). *)
let shifted_rows a ~shift =
  let rows = max 0 (Bitmat.rows a - shift) in
  let f v = if shift >= 0 then v lsr shift else v lsl -shift in
  Bitmat.of_cols ~rows (List.init (Bitmat.cols a) (fun j -> f (Bitmat.col a j)))

let bank_cycles ~nbanks ~bank_bytes ~elem_bytes a =
  if not (is_pow2 nbanks && is_pow2 bank_bytes && is_pow2 elem_bytes) then None
  else begin
    let w = shifted_rows a ~shift:(log2 bank_bytes - log2 elem_bytes) in
    let bank_bits = log2 nbanks in
    let b =
      Bitmat.of_cols
        ~rows:(min (Bitmat.rows w) bank_bits)
        (List.init (Bitmat.cols w) (fun j ->
             Bitmat.col w j land ((1 lsl bank_bits) - 1)))
    in
    Some (1 lsl (Bitmat.rank w - Bitmat.rank b))
  end

let txn_count ~txn_bytes ~elem_bytes a =
  if not (is_pow2 txn_bytes && is_pow2 elem_bytes) then None
  else
    let s = shifted_rows a ~shift:(log2 txn_bytes - log2 elem_bytes) in
    Some (1 lsl Bitmat.rank s)
