module L = Lego_layout

type t = { bits : int; mat : Bitmat.t; c : int }

let bits t = t.bits
let mat t = t.mat
let const t = t.c

let vec_mask bits = if bits = 0 then 0 else (1 lsl bits) - 1

let make ~bits ~mat ~c =
  if Bitmat.rows mat <> bits || Bitmat.cols mat <> bits then
    invalid_arg "Linear.make: matrix is not bits x bits";
  if c land lnot (vec_mask bits) <> 0 then
    invalid_arg "Linear.make: constant outside the bit range";
  { bits; mat; c }

let identity n = { bits = n; mat = Bitmat.identity n; c = 0 }
let apply t x = Bitmat.apply t.mat x lxor t.c

let compose f g =
  if f.bits <> g.bits then invalid_arg "Linear.compose: bit-width mismatch";
  { bits = f.bits; mat = Bitmat.mul f.mat g.mat; c = Bitmat.apply f.mat g.c lxor f.c }

let equal a b = a.bits = b.bits && a.c = b.c && Bitmat.equal a.mat b.mat

let hash t =
  let h = ref ((t.bits * 65599) + t.c) in
  for j = 0 to t.bits - 1 do
    h := (!h * 1_000_003) lxor Bitmat.col t.mat j
  done;
  !h land max_int

let invertible t = Bitmat.rank t.mat = t.bits

let inverse t =
  match Bitmat.inverse t.mat with
  | None -> None
  | Some inv -> Some { bits = t.bits; mat = inv; c = Bitmat.apply inv t.c }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let k = ref 0 in
  let v = ref n in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* [RegP]: the flat map is [sum_d digit_d(x) * out_stride_d] with every
   extent (hence every stride) a power of two, so digit [t] of dimension
   [d] moves input bit [log2 in_stride_d + t] to output bit
   [log2 out_stride_d + t] — a pure bit permutation. *)
let of_reg dims sigma =
  let r = List.length dims in
  let ids = List.init r Fun.id in
  let perm_dims = Array.of_list (L.Sigma.permute sigma dims) in
  let perm_ids = Array.of_list (L.Sigma.permute sigma ids) in
  let out_stride = Array.make r 1 in
  for j = r - 2 downto 0 do
    out_stride.(j) <- out_stride.(j + 1) * perm_dims.(j + 1)
  done;
  let extent = Array.of_list dims in
  let in_stride = Array.make r 1 in
  for d = r - 2 downto 0 do
    in_stride.(d) <- in_stride.(d + 1) * extent.(d + 1)
  done;
  let out_of = Array.make r 0 in
  Array.iteri (fun j d -> out_of.(d) <- out_stride.(j)) perm_ids;
  let bits = log2 (Array.fold_left ( * ) 1 extent) in
  let col = Array.make bits 0 in
  for d = 0 to r - 1 do
    let ib = log2 in_stride.(d) and ob = log2 out_of.(d) in
    for t = 0 to log2 extent.(d) - 1 do
      col.(ib + t) <- 1 lsl (ob + t)
    done
  done;
  { bits; mat = Bitmat.of_cols ~rows:bits (Array.to_list col); c = 0 }

(* The swizzle family: [x = i*cols + j |-> i*cols + (j lxor ((i >> shift)
   land mask))] is the identity plus, for every set mask bit [b], an xor
   of input bit [cbits + b + shift] (bit [b + shift] of [i]) into output
   bit [b]. *)
let of_swizzlex ~rows ~cols ~mask ~shift =
  let rbits = log2 rows and cbits = log2 cols in
  let bits = rbits + cbits in
  let col = Array.init bits (fun k -> 1 lsl k) in
  for b = 0 to cbits - 1 do
    if mask land (1 lsl b) <> 0 && b + shift < rbits then
      col.(cbits + b + shift) <- col.(cbits + b + shift) lxor (1 lsl b)
  done;
  { bits; mat = Bitmat.of_cols ~rows:bits (Array.to_list col); c = 0 }

(* Probed construction for pieces that are linear by definition but have
   no closed stride form (Morton interleaving): read the constant and
   the basis columns off the interpreter, then verify the affine form on
   the {e whole} domain, so a probe can never silently mis-model a
   piece.  Domains above the cap are refused rather than trusted. *)
let probe_cap = 1 lsl 16

let of_probe piece numel =
  if numel > probe_cap then None
  else begin
    let dims = L.Piece.dims piece in
    let eval flat = L.Piece.apply_ints piece (L.Shape.unflatten_ints dims flat) in
    let bits = log2 numel in
    let c = eval 0 in
    let cols = List.init bits (fun k -> eval (1 lsl k) lxor c) in
    let lin = { bits; mat = Bitmat.of_cols ~rows:bits cols; c } in
    let ok = ref true in
    for x = 0 to numel - 1 do
      if apply lin x <> eval x then ok := false
    done;
    if !ok then Some lin else None
  end

let of_piece_uncached piece =
  let dims = L.Piece.dims piece in
  if not (List.for_all is_pow2 dims) then None
  else
    let numel = L.Piece.numel piece in
    match piece with
    | L.Piece.Reg { dims; sigma } -> Some (of_reg dims sigma)
    | L.Piece.Gen { name; dims; _ } -> (
      match (name, dims) with
      | "reverse", _ ->
        Some
          {
            bits = log2 numel;
            mat = Bitmat.identity (log2 numel);
            c = numel - 1;
          }
      | "swizzle", [ rows; cols ] ->
        (* key = i mod cols, i.e. mask = cols - 1, shift = 0. *)
        Some (of_swizzlex ~rows ~cols ~mask:(cols - 1) ~shift:0)
      | "morton", _ -> of_probe piece numel
      | _, [ rows; cols ] -> (
        match L.Gallery.parse_swizzlex name with
        | Some (mask, shift) -> Some (of_swizzlex ~rows ~cols ~mask ~shift)
        | None -> None)
      | _ -> None)

(* Piece matrices are shared by every layout embedding the piece
   ([Piece.equal] is (name, dims) equality, which the printed form
   captures), and the swizzle search instantiates hundreds of layouts
   over a few dozen pieces — so memoize per piece identity, domain-local
   because scoring runs inside [Exec.map] workers. *)
let piece_memo : (string, t option) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let of_piece piece =
  let tbl = Domain.DLS.get piece_memo in
  let key = L.Piece.to_string piece in
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = of_piece_uncached piece in
    Hashtbl.add tbl key r;
    r

(* One [Order_by] stage: the flat input decomposes over the suffix
   products [flat = sum_i c_i * D_i], each piece maps its own bit field
   in place, so the stage matrix is block-diagonal on the fields (and
   the constants assemble on the same offsets). *)
let of_stage o =
  let ps = L.Order_by.pieces o in
  let rec build ps =
    match ps with
    | [] -> Some []
    | p :: rest -> (
      match (of_piece p, build rest) with
      | Some lin, Some tail -> Some ((lin, L.Piece.numel p) :: tail)
      | _ -> None)
  in
  match build ps with
  | None -> None
  | Some pieces ->
    let total_bits =
      List.fold_left (fun acc (lin, _) -> acc + lin.bits) 0 pieces
    in
    let col = Array.make total_bits 0 in
    let c = ref 0 in
    (* Pieces are listed outermost-first, so the head owns the top bit
       field and the offset descends to 0 at the innermost piece. *)
    let rec place off = function
      | [] -> assert (off = 0)
      | (lin, _) :: inner ->
        let off = off - lin.bits in
        for k = 0 to lin.bits - 1 do
          col.(off + k) <- Bitmat.col lin.mat k lsl off
        done;
        c := !c lxor (lin.c lsl off);
        place off inner
    in
    place total_bits pieces;
    Some
      {
        bits = total_bits;
        mat = Bitmat.of_cols ~rows:total_bits (Array.to_list col);
        c = !c;
      }

(* The chain acts last-to-first (figure 7), so [o :: rest] is [o]'s
   stage after [rest]'s map, and the empty chain is the identity.
   Stages compile head first and the walk stops at the first one with
   no linear form, so a non-linear layout compiles no further stage. *)
let of_layout g =
  let numel = L.Group_by.numel g in
  if not (is_pow2 numel) then None
  else
    let rec chain = function
      | [] -> Some (identity (log2 numel))
      | o :: rest -> (
        match of_stage o with
        | None -> None
        | Some stage -> (
          match chain rest with
          | Some t when t.bits = stage.bits -> Some (compose stage t)
          | _ -> None))
    in
    chain (L.Group_by.chain g)

let pp ppf t =
  Format.fprintf ppf "@[<v>F2(%d bits, c=%d)@,%a@]" t.bits t.c Bitmat.pp t.mat
