module L = Lego_layout

type t = { dims : L.Shape.t; numel : int; apply_flat : int -> int }

let dims t = t.dims
let numel t = t.numel
let apply_flat t flat = t.apply_flat flat
let apply t idx = t.apply_flat (L.Shape.flatten_ints t.dims idx)

(* A [Reg] piece is the sigma-permutation of mixed-radix digits: its
   flat-to-flat map is linear, [g c = sum_d digit_d(c) * out_stride_d],
   so it compiles to a handful of div/mod/mul per evaluation with no
   table at all — this is what lets the transpose slot's million-element
   global views go through the fast path. *)
let compile_reg dims sigma =
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
  (* Power-of-two extents (the overwhelmingly common case: tile sides
     and register blocks) let the digit extraction strength-reduce to
     shift-and-mask, and the rank-2 shape of every 2-D tile slot
     unrolls the loop away.  All variants compute the same sum. *)
  let pow2 x = x > 0 && x land (x - 1) = 0 in
  let log2 x =
    let k = ref 0 in
    let v = ref x in
    while !v > 1 do
      incr k;
      v := !v lsr 1
    done;
    !k
  in
  let all_pow2 = Array.for_all pow2 in_stride && Array.for_all pow2 extent in
  if all_pow2 && r = 2 then begin
    let s0 = log2 in_stride.(0)
    and m0 = extent.(0) - 1
    and o0 = out_of.(0)
    and s1 = log2 in_stride.(1)
    and m1 = extent.(1) - 1
    and o1 = out_of.(1) in
    fun c -> (((c lsr s0) land m0) * o0) + (((c lsr s1) land m1) * o1)
  end
  else if all_pow2 then begin
    let shift = Array.map log2 in_stride in
    let mask = Array.map (fun e -> e - 1) extent in
    fun c ->
      let acc = ref 0 in
      for d = 0 to r - 1 do
        acc := !acc + (((c lsr shift.(d)) land mask.(d)) * out_of.(d))
      done;
      !acc
  end
  else
    fun c ->
      let acc = ref 0 in
      for d = 0 to r - 1 do
        acc := !acc + (c / in_stride.(d) mod extent.(d) * out_of.(d))
      done;
      !acc

(* A [Gen] piece is an opaque bijection; its flat-to-flat map is
   tabulated lazily (-1 = not yet computed), so only the addresses a
   kernel actually touches are ever evaluated.  The table is keyed by
   the piece's printed identity ([Piece.equal] is (name, dims) equality)
   and shared by every layout that embeds the piece: a tuning space
   composes a handful of gallery bijections with many Reg tilings, so
   each bijection is evaluated at most once per index across the {e
   whole} search, not once per candidate. *)
let gen_tables : (string, int array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let compile_gen piece dims m =
  let tables = Domain.DLS.get gen_tables in
  let key = L.Piece.to_string piece in
  let tbl =
    match Hashtbl.find_opt tables key with
    | Some t -> t
    | None ->
      let t = Array.make m (-1) in
      Hashtbl.add tables key t;
      t
  in
  fun c ->
    let v = tbl.(c) in
    if v >= 0 then v
    else
      let v = L.Piece.apply_ints piece (L.Shape.unflatten_ints dims c) in
      tbl.(c) <- v;
      v

let compile_piece piece =
  let m = L.Piece.numel piece in
  let g =
    match piece with
    | L.Piece.Reg { dims; sigma } -> compile_reg dims sigma
    | L.Piece.Gen { dims; _ } -> compile_gen piece dims m
  in
  (g, m)

(* One [Order_by] stage.  Row-major flattening is hierarchical, so the
   flat input decomposes as [flat = sum_i c_i * D_i] with [c_i] piece
   [i]'s own flat index and [D_i] the suffix product of later pieces'
   element counts; the stage output re-assembles the mapped digits on
   the same strides: [sum_i g_i(c_i) * D_i] (figure 7's traversal,
   without materializing the logical index). *)
let stage o =
  match List.map compile_piece (L.Order_by.pieces o) with
  | [ (g, _) ] -> g
  | gs ->
    let arr = Array.of_list gs in
    let k = Array.length arr in
    let suffix = Array.make k 1 in
    for i = k - 2 downto 0 do
      suffix.(i) <- suffix.(i + 1) * snd arr.(i + 1)
    done;
    fun flat ->
      let acc = ref 0 in
      for i = 0 to k - 1 do
        let g, m = arr.(i) in
        acc := !acc + (g (flat / suffix.(i) mod m) * suffix.(i))
      done;
      !acc

(* The chain acts last-to-first (figure 7), so its stages run in
   reverse list order. *)
let chain c =
  let stages = Array.of_list (List.rev_map stage c) in
  match Array.length stages with
  | 0 -> Fun.id
  | 1 -> stages.(0)
  | 2 ->
    let s0 = stages.(0) and s1 = stages.(1) in
    fun flat -> s1 (s0 flat)
  | _ -> fun flat -> Array.fold_left (fun f stage -> stage f) flat stages

let compile g =
  {
    dims = L.Group_by.dims g;
    numel = L.Group_by.numel g;
    apply_flat = chain (L.Group_by.chain g);
  }

(* Fingerprint-keyed memo, domain-local so tuner worker domains never
   share the (mutably filled) Gen tables. *)
let memo : (string, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let of_layout g =
  let tbl = Domain.DLS.get memo in
  let fp = Fingerprint.of_layout g in
  match Hashtbl.find_opt tbl fp with
  | Some c -> c
  | None ->
    let c = compile g in
    Hashtbl.add tbl fp c;
    c

let clear_memo () =
  Hashtbl.reset (Domain.DLS.get memo);
  Hashtbl.reset (Domain.DLS.get gen_tables)
