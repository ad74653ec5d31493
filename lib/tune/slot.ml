module L = Lego_layout
module G = Lego_gpusim
module F = Lego_gpusim.Fastpath
module Sym = Lego_symbolic

type sim = {
  time_s : float;
  s_accesses : float;
  s_cycles : float;
  g_txns : float;
}

type t = {
  name : string;
  descr : string;
  rows : int;
  cols : int;
  device : G.Device.t;
  smem_dtype : G.Mem.dtype;
  phases : Predict.phase list;
  simulate : fast:bool -> L.Group_by.t -> sim;
  simulate_sampled : (fast:bool -> L.Group_by.t -> sim) option;
  baselines : (string * sim Lazy.t) list;
  full_warps : bool;
}

(* The cache/store identity of a slot: simulation results depend on the
   device model and the shared-memory element width, not just the slot
   name — "matmul" tuned on an A100 must never satisfy a lookup for
   "matmul" on an H100 (the regression the (name, fingerprint)-only key
   had).  Device identity prefers the stable preset key; a hand-built
   device falls back to its free-form name. *)
let identity t =
  let dev =
    match G.Device.preset_name t.device with
    | Some k -> k
    | None -> t.device.G.Device.name
  in
  Printf.sprintf "%s@%s/%s" t.name dev (G.Mem.dtype_name t.smem_dtype)

let sim_of_reports reports =
  let acc, cyc, txn =
    List.fold_left
      (fun (a, c, t) (r : G.Simt.report) ->
        ( a +. r.counters.G.Simt.s_accesses,
          c +. r.counters.G.Simt.s_cycles,
          t +. r.counters.G.Simt.g_txns ))
      (0.0, 0.0, 0.0) reports
  in
  {
    time_s = G.Metrics.sum_times_s reports;
    s_accesses = acc;
    s_cycles = cyc;
    g_txns = txn;
  }

(* Zero shared conflicts in a finished simulation: every warp-wide shared
   round ran in one cycle.  Only meaningful when every shared round uses
   a full warp (each round then contributes warp_size accesses and >= 1
   cycle), which the slots below assert via [full_warps]. *)
let sim_conflict_free ?(device = G.Device.a100) s =
  s.s_accesses > 0.0
  && s.s_cycles = s.s_accesses /. float_of_int device.G.Device.warp_size

(* Per-access address-computation charge fed to the [Alu] ops.  The raw
   symbolic op count wildly overstates bitwise GenP bijections: the
   expression language has no XOR, so [Gallery.xor_word] expands each bit
   through add/mul/div arithmetic (~150 ops for a 5-bit swizzle), while
   the CUDA/Triton code the paper generates lowers the same swizzle to a
   couple of LOP3/SHF instructions.  Capping the modeled cost keeps the
   roofline honest — cheap strided layouts still win the tie at 2-8 ops,
   but no layout is charged more address arithmetic than a short
   hardware instruction sequence. *)
let addr_ops_cap = 16
let addr_ops g = min addr_ops_cap (Sym.Cost.ops (Sym.Sym.apply g))

let row_major ~rows ~cols =
  L.Group_by.make
    ~chain:
      [
        L.Order_by.make
          [ L.Piece.reg ~dims:[ rows; cols ] ~sigma:(L.Sigma.identity 2) ];
      ]
    [ [ rows; cols ] ]

(* The candidate's (i, j) -> shared-word map; the slot kernels accept
   any layout whose logical view is [rows x cols] (hierarchy
   regroupings included — only the concatenated dims matter).
   [fast:true] compiles the layout once per simulation and evaluates
   through the closure; [fast:false] through the structural
   interpreter, reproducing the pre-fast-path per-access cost — the
   values are identical either way (the {!Compiled} contract), so
   counters stay bit-identical. *)
let layout_addr ~fast ~name ~rows ~cols g =
  if L.Group_by.dims g <> [ rows; cols ] then
    invalid_arg
      (Printf.sprintf "%s slot: layout must view [%d; %d]" name rows cols);
  if fast then
    let c = Compiled.compile g in
    fun i j -> Compiled.apply_flat c ((i * cols) + j)
  else fun i j -> L.Group_by.apply_ints g [ i; j ]

(* Run one launch of a warp program on the selected path.  [fast:false]
   is the effect-handler reference: the {e same} program interpreted
   through {!Lego_gpusim.Simt} fibers — counters are bit-identical by
   the {!Lego_gpusim.Fastpath} contract, only the wall-clock differs.
   [summaries] is the simulation's own table: the fast path fills it
   and reads it back across blocks and launches. *)
let launch ~fast ~device ?smem_dtype ?sample_blocks ~summaries ~grid ~block
    ~smem_words prog =
  if fast then
    F.run ~device ?smem_dtype ?sample_blocks ~summaries ~grid ~block
      ~smem_words prog
  else
    G.Simt.run ~device ?smem_dtype ?sample_blocks ~grid ~block ~smem_words
      (F.interpret prog)

(* FP16 matmul staging tile (the paper's figure 13 shared-memory GEMM
   operand): a 128 x 32 half-precision tile is staged row-wise by 8 warps
   and then consumed column-wise, 4 columns per warp in 4 row-parts.
   Row-major storage makes the column reads 16-way bank conflicted (two
   F16 elements share each 4-byte bank word); the paper's hand-written
   fix is the XOR swizzle the tuner should rediscover. *)
let matmul_smem ?(device = G.Device.a100) () =
  let rows = 128 and cols = 32 in
  let program ~fast g =
    let saddr = layout_addr ~fast ~name:"matmul" ~rows ~cols g in
    let aops = addr_ops g in
    (* Stage: warp [ty] stores rows ty, ty+8, ... — lane tx = column. *)
    List.concat
      (List.init (rows / 8) (fun l ->
           [
             F.Alu aops;
             F.Sstore
               (fun (ctx : G.Simt.ctx) -> saddr (ctx.ty + (8 * l)) ctx.tx);
           ]))
    @ [ F.Sync ]
    (* Consume: warp [ty] reads columns 4ty .. 4ty+3, lane tx = row
       within each 32-row part. *)
    @ List.concat
        (List.init 4 (fun co ->
             List.concat
               (List.init (rows / 32) (fun p ->
                    [
                      F.Alu aops;
                      F.Sload
                        (fun (ctx : G.Simt.ctx) ->
                          saddr ((p * 32) + ctx.tx) ((4 * ctx.ty) + co));
                    ]))))
  in
  (* All four blocks run the identical program (no block-dependent
     address anywhere), so the sampled rung simulates one block — same
     per-warp rounds, a quarter of the work.  A full run summarizes the
     warps of its first block, and the other three read them back. *)
  let simulate_blocks ?sample_blocks ~fast g =
    let r =
      launch ~fast ~device ~smem_dtype:G.Mem.F16 ?sample_blocks
        ~summaries:(F.summaries ()) ~grid:(4, 1) ~block:(32, 8)
        ~smem_words:(rows * cols) (program ~fast g)
    in
    sim_of_reports [ r ]
  in
  let simulate ~fast g = simulate_blocks ~fast g in
  let phases =
    List.init 32 (fun r ->
        Predict.Shared { elem_bytes = 2; lanes = (fun t -> Some [ r; t ]) })
    @ List.init cols (fun c ->
          Predict.Shared { elem_bytes = 2; lanes = (fun t -> Some [ t; c ]) })
  in
  {
    name = "matmul";
    descr = "128x32 FP16 matmul staging tile (shared memory)";
    rows;
    cols;
    device;
    smem_dtype = G.Mem.F16;
    phases;
    simulate;
    simulate_sampled =
      Some (fun ~fast g -> simulate_blocks ~sample_blocks:1 ~fast g);
    baselines =
      [ ("row-major", lazy (simulate ~fast:true (row_major ~rows ~cols))) ];
    full_warps = true;
  }

(* 32x32 FP32 transpose tile (figure 13): the shared-staged transpose of
   {!Lego_apps.Transpose.run_shared} expressed as a warp program — the
   candidate is the shared tile layout, the global views are the
   row-major input and column-major-ordered output of the app.  The
   "naive" baseline is the no-shared-memory kernel with uncoalesced
   global writes — the gap the paper's shared variant closes. *)
let transpose_smem ?(device = G.Device.a100) () =
  let rows = 32 and cols = 32 in
  let size = 1024 in
  let t = 32 in
  let rows_per_iter = 256 / t in
  let cfg = Lego_apps.Transpose.default_config size in
  let arena_cap = 1 lsl 22 in
  let inp, wi =
    G.Mem.create_arena ~label:"in" G.Mem.F32 (size * size) ~cap:arena_cap
  in
  let out, wo =
    G.Mem.create_arena ~label:"out" G.Mem.F32 (size * size) ~cap:arena_cap
  in
  (* Input is the row-major view, output the same logical index through
     a column-major-ordered view (transposition as a pure layout
     change); both compile to stride arithmetic, so even these
     million-element views go through the fast path without tables. *)
  let li = L.Sugar.tiled_view ~group:[ [ size; size ] ] () in
  let lo =
    L.Sugar.tiled_view
      ~order:[ L.Sugar.col [ size; size ] ]
      ~group:[ [ size; size ] ]
      ()
  in
  let cli = Compiled.compile li and clo = Compiled.compile lo in
  let program ~fast g =
    let saddr = layout_addr ~fast ~name:"transpose" ~rows ~cols g in
    let iaddr, oaddr =
      if fast then
        ( (fun i j -> Compiled.apply_flat cli ((i * size) + j)),
          fun oj oi -> Compiled.apply_flat clo ((oj * size) + oi) )
      else
        ( (fun i j -> L.Group_by.apply_ints li [ i; j ]),
          fun oj oi -> L.Group_by.apply_ints lo [ oj; oi ] )
    in
    (* Stage the tile: coalesced reads, shared stores (possibly
       conflicting, depending on the candidate layout)... *)
    List.concat
      (List.init (t / rows_per_iter) (fun r ->
           [
             F.Alu 4;
             F.Gload
               ( inp,
                 fun (ctx : G.Simt.ctx) ->
                   let i = (ctx.by * t) + ctx.ty + (r * rows_per_iter)
                   and j = (ctx.bx * t) + ctx.tx in
                   wi (iaddr i j) );
             F.Sstore
               (fun (ctx : G.Simt.ctx) ->
                 saddr (ctx.ty + (r * rows_per_iter)) ctx.tx);
           ]))
    @ [ F.Sync ]
    (* ...then write the transposed tile with coalesced global stores;
       the shared reads walk a column of the tile. *)
    @ List.concat
        (List.init (t / rows_per_iter) (fun r ->
             [
               F.Alu 4;
               F.Sload
                 (fun (ctx : G.Simt.ctx) ->
                   saddr ctx.tx (ctx.ty + (r * rows_per_iter)));
               F.Gstore
                 ( out,
                   fun (ctx : G.Simt.ctx) ->
                     let tj = ctx.ty + (r * rows_per_iter) in
                     let oi = (ctx.bx * t) + tj and oj = (ctx.by * t) + ctx.tx in
                     wo (oaddr oj oi) );
             ]))
  in
  (* Shared addresses are block-independent; only the global streams
     vary with (bx, by), and they are sampled-and-scaled by the grid
     sampler either way, so one block instead of four ranks sampled
     candidates on the same structure at a quarter of the work. *)
  let simulate_blocks ~sample_blocks ~fast g =
    let r =
      launch ~fast ~device ~sample_blocks ~summaries:(F.summaries ())
        ~grid:(size / t, size / t)
        ~block:(t, rows_per_iter) ~smem_words:(rows * cols)
        (program ~fast g)
    in
    sim_of_reports [ r ]
  in
  let simulate ~fast g = simulate_blocks ~sample_blocks:4 ~fast g in
  let phases =
    List.init rows (fun ti ->
        Predict.Shared { elem_bytes = 4; lanes = (fun t -> Some [ ti; t ]) })
    @ List.init cols (fun tj ->
          Predict.Shared { elem_bytes = 4; lanes = (fun t -> Some [ t; tj ]) })
  in
  {
    name = "transpose";
    descr = "32x32 FP32 transpose tile (shared memory)";
    rows;
    cols;
    device;
    smem_dtype = G.Mem.F32;
    phases;
    simulate;
    simulate_sampled =
      Some (fun ~fast g -> simulate_blocks ~sample_blocks:1 ~fast g);
    baselines =
      [
        ( "naive",
          lazy
            (let r = Lego_apps.Transpose.run_naive ~device cfg in
             sim_of_reports r.reports) );
        ( "row-major-smem",
          lazy (simulate ~fast:true (row_major ~rows ~cols)) );
      ];
    full_warps = true;
  }

(* Needleman-Wunsch 17x17 score buffer (figure 14): wavefront updates
   walk anti-diagonals, so row-major storage serializes on banks; the
   paper's fix is the anti-diagonal layout of figure 8.  17 is prime and
   not a power of two, so the space here is just the sigma and gallery
   roots — always exhaustive.

   The tile kernel of {!Lego_apps.Nw} is expressed as a {e predicated}
   warp program: the [tx = 0] corner staging and the shrinking wavefront
   fronts become [Masked] ops, so the warp stays converged and the fast
   path applies.  All 2nb-1 diagonal launches share one op structure
   (only global offsets shift with the diagonal), so one summary table
   serves a simulation's whole sweep. *)
let nw_smem ?(device = G.Device.a100) () =
  let b = 16 in
  let rows = b + 1 and cols = b + 1 in
  let length = 512 in
  let n = length + 1 in
  let nb = length / b in
  let scores, wrap =
    G.Mem.create_arena ~label:"scores" G.Mem.I32 (n * n) ~cap:(1 lsl 22)
  in
  let sref_base = (b + 1) * (b + 1) in
  let smem_words = sref_base + (b * b) in
  (* The program is built {e once} per candidate and reused for all
     2nb-1 diagonal launches: only the global base offsets shift with
     the diagonal, so they read the [d]/[ti_lo] refs the launch loop
     updates.  Shared addresses and masks never touch the refs, which
     is what makes one summary table per sweep sound. *)
  let program ~sbuff ~ac ~d ~ti_lo =
    let base_i (ctx : G.Simt.ctx) = (!ti_lo + ctx.bx) * b
    and base_j (ctx : G.Simt.ctx) = (!d - !ti_lo - ctx.bx) * b in
    let lane0 (ctx : G.Simt.ctx) = ctx.tx = 0 in
    (* Stage boundaries: top row, left column, corner (lane 0 only). *)
    [
      F.Alu ac;
      F.Gload
        (scores, fun ctx -> wrap ((base_i ctx * n) + base_j ctx + ctx.tx + 1));
      F.Sstore (fun ctx -> sbuff 0 (ctx.G.Simt.tx + 1));
      F.Alu ac;
      F.Gload
        ( scores,
          fun ctx -> wrap (((base_i ctx + ctx.tx + 1) * n) + base_j ctx) );
      F.Sstore (fun ctx -> sbuff (ctx.G.Simt.tx + 1) 0);
      F.Masked (lane0, F.Alu ac);
      F.Masked
        (lane0, F.Gload (scores, fun ctx -> wrap ((base_i ctx * n) + base_j ctx)));
      F.Masked (lane0, F.Sstore (fun _ -> sbuff 0 0));
    ]
    (* Stage the reference tile (row per thread). *)
    @ List.init b (fun jj ->
          F.Sstore (fun (ctx : G.Simt.ctx) -> sref_base + (ctx.tx * b) + jj))
    @ [ F.Sync ]
    (* Forward wavefront over the 2b-1 anti-diagonals of the tile: lane
       tx updates cell (tx+1, s-tx+1) when it lies in the tile. *)
    @ List.concat
        (List.init ((2 * b) - 1) (fun s ->
             let active (ctx : G.Simt.ctx) =
               let j = s - ctx.tx + 1 in
               j >= 1 && j <= b
             in
             [
               F.Masked (active, F.Alu (4 * ac));
               F.Masked
                 ( active,
                   F.Sload (fun (ctx : G.Simt.ctx) -> sbuff ctx.tx (s - ctx.tx))
                 );
               F.Masked
                 ( active,
                   F.Sload
                     (fun (ctx : G.Simt.ctx) -> sbuff ctx.tx (s - ctx.tx + 1))
                 );
               F.Masked
                 ( active,
                   F.Sload
                     (fun (ctx : G.Simt.ctx) -> sbuff (ctx.tx + 1) (s - ctx.tx))
                 );
               F.Masked
                 ( active,
                   F.Sload
                     (fun (ctx : G.Simt.ctx) ->
                       sref_base + (ctx.tx * b) + (s - ctx.tx)) );
               F.Masked (active, F.Flops (G.Mem.I32, false, 4));
               F.Masked
                 ( active,
                   F.Sstore
                     (fun (ctx : G.Simt.ctx) ->
                       sbuff (ctx.tx + 1) (s - ctx.tx + 1)) );
               F.Sync;
             ]))
    (* Write the tile interior back, thread per column so the global
       stores of a round are consecutive (coalesced), as in Rodinia. *)
    @ List.concat
        (List.init b (fun ii ->
             [
               F.Alu ac;
               F.Sload
                 (fun (ctx : G.Simt.ctx) -> sbuff (ii + 1) (ctx.tx + 1));
               F.Gstore
                 ( scores,
                   fun ctx ->
                     wrap
                       (((base_i ctx + ii + 1) * n) + base_j ctx + ctx.tx + 1)
                 );
             ]))
  in
  (* [diags] selects which of the 2nb-1 wavefront launches to run, in
     ascending order (the L2 state threads through them).  The full
     simulation runs them all; the sampled rung runs only the widest
     diagonal (dv = nb-1, every block active) — the shared-conflict
     structure is identical on every diagonal (addresses are
     block-independent), so one launch ranks candidates on the same
     signal at 1/(2nb-1) of the work. *)
  let simulate_with ~fast ~sbuff ~ac diags =
    let d = ref 0 and ti_lo = ref 0 in
    let prog = program ~sbuff ~ac ~d ~ti_lo in
    let summaries = F.summaries () in
    let reports = ref [] in
    List.iter
      (fun dv ->
        d := dv;
        ti_lo := max 0 (dv - nb + 1);
        let ti_hi = min dv (nb - 1) in
        let blocks = ti_hi - !ti_lo + 1 in
        let r =
          launch ~fast ~device ~sample_blocks:2 ~summaries ~grid:(blocks, 1)
            ~block:(b, 1) ~smem_words prog
        in
        reports := r :: !reports)
      diags;
    sim_of_reports (List.rev !reports)
  in
  let all_diags = List.init ((2 * nb) - 1) Fun.id in
  let simulate_diags diags ~fast g =
    let sbuff = layout_addr ~fast ~name:"nw" ~rows ~cols g in
    simulate_with ~fast ~sbuff ~ac:(addr_ops g) diags
  in
  let simulate = simulate_diags all_diags in
  let simulate_sampled = simulate_diags [ nb - 1 ] in
  (* Wavefront step [s]: active lane [t] updates cell (t+1, s-t+1) from
     its west, north and north-west neighbours.  Sample a mid and a full
     diagonal. *)
  let wavefront s (di, dj) =
    Predict.Shared
      {
        elem_bytes = 4;
        lanes =
          (fun t ->
            let i = t + 1 and j = s - t + 1 in
            if t < b && j >= 1 && j <= b then Some [ i + di; j + dj ] else None);
      }
  in
  let phases =
    List.concat_map
      (fun s ->
        [
          wavefront s (-1, -1);
          wavefront s (-1, 0);
          wavefront s (0, -1);
          wavefront s (0, 0);
        ])
      [ b / 2; b - 1 ]
  in
  let antidiag_layout =
    L.Group_by.make
      ~chain:[ L.Order_by.make [ L.Gallery.antidiag (b + 1) ] ]
      [ [ b + 1; b + 1 ] ]
  in
  {
    name = "nw";
    descr = "17x17 FP32 Needleman-Wunsch score buffer (shared memory)";
    rows;
    cols;
    device;
    smem_dtype = G.Mem.F32;
    phases;
    simulate;
    simulate_sampled = Some simulate_sampled;
    baselines =
      [
        ("row-major", lazy (simulate ~fast:true (row_major ~rows ~cols)));
        ("antidiag", lazy (simulate ~fast:true antidiag_layout));
      ];
    full_warps = false;
  }

(* The slots by name, in listing order.  Each is built only when
   asked for: building one allocates its arenas and views. *)
let registry =
  [ ("matmul", matmul_smem); ("transpose", transpose_smem); ("nw", nw_smem) ]

let names = List.map fst registry
let all ?device () = List.map (fun (_, make) -> make ?device ()) registry

let find ?device name =
  Option.map (fun make -> make ?device ()) (List.assoc_opt name registry)
