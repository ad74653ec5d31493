module L = Lego_layout
module G = Lego_gpusim
open G

type smem_layout = Unpadded | Padded | Swizzled

type config = { m : int; n : int; tile : int; compute_values : bool }

let default_config size =
  { m = size; n = size; tile = 32; compute_values = false }

type result = {
  time_s : float;
  gbps : float;
  reports : Simt.report list;
}

(* A block is [tile x (256 / tile)] threads whose rows sweep the tile,
   so the tile must divide 256 and be at least 16 (16 x 16 = 256). *)
let tiles = [ 16; 32; 64; 128; 256 ]

let check cfg =
  let fail fmt = Printf.ksprintf invalid_arg ("Transpose: " ^^ fmt) in
  if cfg.m <= 0 then fail "m (%d) must be positive" cfg.m;
  if cfg.n <= 0 then fail "n (%d) must be positive" cfg.n;
  if not (List.mem cfg.tile tiles) then
    fail "tile (%d) must be one of %s" cfg.tile
      (String.concat ", " (List.map string_of_int tiles));
  if cfg.m mod cfg.tile <> 0 then
    fail "m (%d) must be divisible by the tile (%d)" cfg.m cfg.tile;
  if cfg.n mod cfg.tile <> 0 then
    fail "n (%d) must be divisible by the tile (%d)" cfg.n cfg.tile

(* Both offsets are LEGO views indexed by the INPUT coordinates (i, j):
   the input is the row-major [m x n] view, and the output offset is the
   same logical index through a column-major-ordered view — transposition
   is purely a layout change, which is the point of the paper's
   figure 13 example. *)
let in_layout cfg = L.Sugar.tiled_view ~group:[ [ cfg.m; cfg.n ] ] ()

let out_layout cfg =
  L.Sugar.tiled_view
    ~order:[ L.Sugar.col [ cfg.m; cfg.n ] ]
    ~group:[ [ cfg.m; cfg.n ] ]
    ()

let useful_bytes cfg = 2.0 *. float_of_int (cfg.m * cfg.n) *. 4.0

let finish cfg reports =
  let time_s = Metrics.sum_times_s reports in
  {
    time_s;
    gbps = Metrics.gbps ~useful_bytes:(useful_bytes cfg) time_s;
    reports;
  }

let arena_cap = 1 lsl 22

(* Sampled runs fold both matrices into bounded arenas and run a few
   blocks; under [compute_values] the buffers are full size, the input
   holds its own offsets and every block runs. *)
let buffers cfg =
  let size = cfg.m * cfg.n in
  let cap = if cfg.compute_values then size else arena_cap in
  let inp, wi = Mem.create_arena ~label:"in" Mem.F32 size ~cap in
  let out, wo = Mem.create_arena ~label:"out" Mem.F32 size ~cap in
  if cfg.compute_values then
    for a = 0 to size - 1 do
      Mem.set inp a (float_of_int a)
    done;
  (inp, wi, out, wo)

let sample_blocks cfg = if cfg.compute_values then None else Some 4

let run_naive ?device cfg =
  check cfg;
  let inp, wi, out, wo = buffers cfg in
  let li = in_layout cfg and lo = out_layout cfg in
  let t = cfg.tile in
  let kern (ctx : Simt.ctx) =
    (* One warp-wide row of the tile per thread row; each thread walks the
       tile column-wise so that reads coalesce and writes do not. *)
    for r = 0 to (t * t / 256) - 1 do
      let i = (ctx.by * t) + (ctx.ty + (r * (256 / t))) in
      let j = (ctx.bx * t) + ctx.tx in
      Simt.alu 4;
      let v = Simt.gload inp (wi (L.Group_by.apply_ints li [ i; j ])) in
      (* The transposed view's offset for the same (i, j) — strided. *)
      Simt.gstore out (wo (L.Group_by.apply_ints lo [ i; j ])) v
    done
  in
  let report =
    Simt.run ?device ?sample_blocks:(sample_blocks cfg)
      ~grid:(cfg.n / t, cfg.m / t)
      ~block:(t, 256 / t) ~smem_words:0 kern
  in
  finish cfg [ report ]

let smem_view cfg layout =
  let t = cfg.tile in
  match layout with
  | Unpadded ->
    ((fun i j -> (i * t) + j), t * t)
  | Padded ->
    ((fun i j -> (i * (t + 1)) + j), t * (t + 1))
  | Swizzled ->
    let piece = L.Gallery.xor_swizzle ~rows:t ~cols:t in
    ((fun i j -> L.Piece.apply_ints piece [ i; j ]), t * t)

(* The shared-tile kernel, with the buffers it moved. *)
let shared ?(smem_layout = Swizzled) cfg =
  check cfg;
  let inp, wi, out, wo = buffers cfg in
  let li = in_layout cfg and lo = out_layout cfg in
  let t = cfg.tile in
  let saddr, swords = smem_view cfg smem_layout in
  let rows_per_iter = 256 / t in
  let kern (ctx : Simt.ctx) =
    (* Stage the tile: coalesced reads, shared stores (possibly
       conflicting, depending on the shared layout)... *)
    for r = 0 to (t / rows_per_iter) - 1 do
      let ti = ctx.ty + (r * rows_per_iter) in
      let i = (ctx.by * t) + ti and j = (ctx.bx * t) + ctx.tx in
      Simt.alu 4;
      let v = Simt.gload inp (wi (L.Group_by.apply_ints li [ i; j ])) in
      Simt.sstore (saddr ti ctx.tx) v
    done;
    Simt.sync ();
    (* ...then write the transposed tile with coalesced global stores;
       the shared reads walk a column of the tile. *)
    for r = 0 to (t / rows_per_iter) - 1 do
      let tj = ctx.ty + (r * rows_per_iter) in
      let oi = (ctx.bx * t) + tj and oj = (ctx.by * t) + ctx.tx in
      Simt.alu 4;
      let v = Simt.sload (saddr ctx.tx tj) in
      (* Element (i, j) = (oj, oi) of the input lands at out[oi][oj]. *)
      Simt.gstore out (wo (L.Group_by.apply_ints lo [ oj; oi ])) v
    done
  in
  let report =
    Simt.run ?sample_blocks:(sample_blocks cfg)
      ~grid:(cfg.n / t, cfg.m / t)
      ~block:(t, rows_per_iter) ~smem_words:swords kern
  in
  (finish cfg [ report ], inp, out)

let run_shared ?smem_layout cfg =
  let r, _, _ = shared ?smem_layout cfg in
  r

let check_numerics ?smem_layout cfg =
  let cfg = { cfg with compute_values = true } in
  let _, inp, out = shared ?smem_layout cfg in
  (* Same logical (i, j), two views: the output under the column-major
     view must equal the input under the row-major view. *)
  let li = in_layout cfg and lo = out_layout cfg in
  let worst = ref 0.0 in
  for i = 0 to cfg.m - 1 do
    for j = 0 to cfg.n - 1 do
      let got = Mem.get out (L.Group_by.apply_ints lo [ i; j ]) in
      let expect = Mem.get inp (L.Group_by.apply_ints li [ i; j ]) in
      worst := Float.max !worst (Float.abs (got -. expect))
    done
  done;
  if !worst = 0.0 then Ok ()
  else Error (Printf.sprintf "transpose: max |err| = %g" !worst)
