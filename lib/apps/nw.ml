module L = Lego_layout
module G = Lego_gpusim
open G

type layout_kind = RowMajor | AntiDiagonal

type config = { length : int; b : int; compute_values : bool }

(* Rodinia's gap penalty. *)
let penalty = 10

let check cfg =
  let fail fmt = Printf.ksprintf invalid_arg ("Nw: " ^^ fmt) in
  if cfg.b <= 0 then fail "b (%d) must be positive" cfg.b;
  if cfg.length <= 0 then fail "length (%d) must be positive" cfg.length;
  if cfg.length mod cfg.b <> 0 then
    fail "length (%d) must be a multiple of b (%d)" cfg.length cfg.b

let default_config length =
  let cfg = { length; b = 16; compute_values = false } in
  check cfg;
  cfg

type result = {
  time_s : float;
  cells_per_s : float;
  reports : Simt.report list;
  scores : Mem.buffer;
}

let buff_index kind ~b =
  match kind with
  | RowMajor -> fun i j -> (i * (b + 1)) + j
  | AntiDiagonal ->
    let piece = L.Gallery.antidiag (b + 1) in
    fun i j -> L.Piece.apply_ints piece [ i; j ]

(* Deterministic pseudo-random similarity matrix, as Rodinia's generator. *)
let reference_entry i j = ((i * 7919) + (j * 104729)) mod 21 - 10

let cpu_reference cfg =
  let n = cfg.length + 1 in
  let f = Array.make (n * n) 0 in
  for i = 0 to cfg.length do
    f.(i * n) <- -i * penalty;
    f.(i) <- -i * penalty
  done;
  for i = 1 to cfg.length do
    for j = 1 to cfg.length do
      let diag = f.(((i - 1) * n) + (j - 1)) + reference_entry i j in
      let up = f.(((i - 1) * n) + j) - penalty in
      let left = f.((i * n) + (j - 1)) - penalty in
      f.((i * n) + j) <- max diag (max up left)
    done
  done;
  f

(* One kernel launch processes all tiles on one anti-diagonal of the tile
   grid; [ti_lo] is the first tile row on that diagonal. *)
let tile_kernel cfg ~sbuff ~addr_cost scores ~wrap ~d ~ti_lo (ctx : Simt.ctx)
    =
  let b = cfg.b and n = cfg.length + 1 in
  let ti = ti_lo + ctx.bx in
  let tj = d - ti in
  let tx = ctx.tx in
  let base_i = ti * b and base_j = tj * b in
  let sref_base = (b + 1) * (b + 1) in
  (* Stage boundaries: top row, left column, corner. *)
  Simt.alu addr_cost;
  Simt.sstore (sbuff 0 (tx + 1)) (Simt.gload scores (wrap ((base_i * n) + base_j + tx + 1)));
  Simt.alu addr_cost;
  Simt.sstore (sbuff (tx + 1) 0) (Simt.gload scores (wrap (((base_i + tx + 1) * n) + base_j)));
  if tx = 0 then begin
    Simt.alu addr_cost;
    Simt.sstore (sbuff 0 0) (Simt.gload scores (wrap ((base_i * n) + base_j)))
  end;
  (* Stage the reference tile (row per thread). *)
  for jj = 0 to b - 1 do
    let i = base_i + tx + 1 and j = base_j + jj + 1 in
    Simt.sstore (sref_base + (tx * b) + jj) (float_of_int (reference_entry i j))
  done;
  Simt.sync ();
  (* Forward wavefront over the 2b-1 anti-diagonals of the tile. *)
  for s = 0 to (2 * b) - 2 do
    let i = tx + 1 and j = s - tx + 1 in
    if j >= 1 && j <= b then begin
      Simt.alu (4 * addr_cost);
      let diag = Simt.sload (sbuff (i - 1) (j - 1)) in
      let up = Simt.sload (sbuff (i - 1) j) in
      let left = Simt.sload (sbuff i (j - 1)) in
      let r = Simt.sload (sref_base + ((i - 1) * b) + (j - 1)) in
      Simt.flops Mem.I32 4;
      let v =
        Float.max
          (diag +. r)
          (Float.max (up -. float_of_int penalty)
             (left -. float_of_int penalty))
      in
      Simt.sstore (sbuff i j) v
    end;
    Simt.sync ()
  done;
  (* Write the tile interior back, thread per column so the global
     stores of a round are consecutive (coalesced), as in Rodinia. *)
  for ii = 0 to b - 1 do
    let i = ii + 1 and j = tx + 1 in
    Simt.alu addr_cost;
    let v = Simt.sload (sbuff i j) in
    Simt.gstore scores (wrap (((base_i + i) * n) + base_j + j)) v
  done

let run kind cfg =
  check cfg;
  (* [sbuff] maps logical [(i, j)] of the [(b+1) x (b+1)] score buffer
     to a shared-memory word; [addr_cost] is the per-access ALU charge of
     evaluating that map on a GPU. *)
  let sbuff = buff_index kind ~b:cfg.b in
  let addr_cost = if kind = AntiDiagonal then 8 else 2 in
  let n = cfg.length + 1 in
  let nb = cfg.length / cfg.b in
  let cap = if cfg.compute_values then n * n else 1 lsl 22 in
  let scores, wrap = Mem.create_arena ~label:"scores" Mem.I32 (n * n) ~cap in
  for i = 0 to cfg.length do
    Mem.set scores (wrap (i * n)) (float_of_int (-i * penalty));
    Mem.set scores (wrap i) (float_of_int (-i * penalty))
  done;
  let smem_words = ((cfg.b + 1) * (cfg.b + 1)) + (cfg.b * cfg.b) in
  let reports = ref [] in
  for d = 0 to (2 * nb) - 2 do
    let ti_lo = max 0 (d - nb + 1) and ti_hi = min d (nb - 1) in
    let blocks = ti_hi - ti_lo + 1 in
    let sample_blocks = if cfg.compute_values then None else Some 2 in
    let r =
      Simt.run ?sample_blocks ~grid:(blocks, 1) ~block:(cfg.b, 1) ~smem_words
        (tile_kernel cfg ~sbuff ~addr_cost scores ~wrap ~d ~ti_lo)
    in
    reports := r :: !reports
  done;
  let reports = List.rev !reports in
  let time_s = Metrics.sum_times_s reports in
  let cells = float_of_int cfg.length *. float_of_int cfg.length in
  { time_s; cells_per_s = cells /. time_s; reports; scores }

let check_numerics kind cfg =
  let cfg = { cfg with compute_values = true } in
  let { scores; _ } = run kind cfg in
  let expect = cpu_reference cfg in
  let n = cfg.length + 1 in
  let bad = ref None in
  for i = 0 to cfg.length do
    for j = 0 to cfg.length do
      if !bad = None then begin
        let got = int_of_float (Mem.get scores ((i * n) + j)) in
        if got <> expect.((i * n) + j) then
          bad := Some (i, j, got, expect.((i * n) + j))
      end
    done
  done;
  match !bad with
  | None -> Ok ()
  | Some (i, j, got, want) ->
    Error
      (Printf.sprintf "NW %s: F[%d][%d] = %d, expected %d"
         (match kind with RowMajor -> "row-major" | AntiDiagonal -> "antidiag")
         i j got want)
