module L = Lego_layout
module G = Lego_gpusim
open G

type config = {
  rows : int;
  cols : int;
  dtype : Mem.dtype;
  compute_values : bool;
}

let default_config cols =
  { rows = 4096; cols; dtype = Mem.F32; compute_values = false }

type result = {
  time_s : float;
  gbps : float;
  reports : Simt.report list;
}

let row_layout cfg = L.Sugar.tiled_view ~group:[ [ cfg.rows; cfg.cols ] ] ()

let threads = 256

(* Block-wide tree reduction through shared memory.  [op] combines, the
   thread's partial lives in [smem slot tid]. *)
let block_reduce ~tid op partial =
  Simt.sstore tid partial;
  Simt.sync ();
  let stride = ref (threads / 2) in
  let acc = ref partial in
  while !stride > 0 do
    if tid < !stride then begin
      let other = Simt.sload (tid + !stride) in
      acc := op !acc other;
      Simt.sstore tid !acc
    end;
    Simt.sync ();
    stride := !stride / 2
  done;
  let result = Simt.sload 0 in
  Simt.sync ();
  result

let fused_kernel cfg layout ~wrap input output (ctx : Simt.ctx) =
  let tid = Simt.linear_tid ctx in
  let row = ctx.bx in
  let per_thread = (cfg.cols + threads - 1) / threads in
  let addr c = wrap (L.Group_by.apply_ints layout [ row; c ]) in
  (* Load the row slice and find the local max. *)
  let local = Array.make per_thread neg_infinity in
  let local_max = ref neg_infinity in
  for l = 0 to per_thread - 1 do
    let c = tid + (l * threads) in
    if c < cfg.cols then begin
      Simt.alu 2;
      let v = Simt.gload input (addr c) in
      local.(l) <- v;
      local_max := Float.max !local_max v
    end
  done;
  Simt.flops cfg.dtype per_thread;
  let row_max = block_reduce ~tid Float.max !local_max in
  (* exp and sum *)
  let local_sum = ref 0.0 in
  for l = 0 to per_thread - 1 do
    let c = tid + (l * threads) in
    if c < cfg.cols then begin
      let e = if cfg.compute_values then exp (local.(l) -. row_max) else 1.0 in
      local.(l) <- e;
      local_sum := !local_sum +. e
    end
  done;
  Simt.flops cfg.dtype (2 * per_thread);
  let row_sum = block_reduce ~tid ( +. ) !local_sum in
  (* normalize and store *)
  for l = 0 to per_thread - 1 do
    let c = tid + (l * threads) in
    if c < cfg.cols then begin
      Simt.alu 2;
      let v = if cfg.compute_values then local.(l) /. row_sum else 0.0 in
      Simt.gstore output (addr c) v
    end
  done;
  Simt.flops cfg.dtype per_thread

(* The fused kernel over the given buffers; [wrap] folds its addresses. *)
let fused cfg ~input ~wrap ~output =
  let layout = row_layout cfg in
  let n = cfg.rows * cfg.cols in
  let sample_blocks = if cfg.compute_values then None else Some 4 in
  let report =
    Simt.run ?sample_blocks ~grid:(cfg.rows, 1) ~block:(threads, 1)
      ~smem_words:threads
      (fused_kernel cfg layout ~wrap input output)
  in
  let time_s = Metrics.time_s report in
  let useful_bytes =
    2.0 *. float_of_int n *. float_of_int (Mem.dtype_bytes cfg.dtype)
  in
  { time_s; gbps = Metrics.gbps ~useful_bytes time_s; reports = [ report ] }

let run_fused cfg =
  let n = cfg.rows * cfg.cols in
  let cap = if cfg.compute_values then n else 1 lsl 22 in
  let input, wrap = Mem.create_arena ~label:"x" cfg.dtype n ~cap in
  let output = fst (Mem.create_arena ~label:"y" cfg.dtype n ~cap) in
  fused cfg ~input ~wrap ~output

(* Eager baseline building blocks: strided elementwise / row-reduce
   kernels, one launch each. *)
let eager_rowreduce cfg layout ~wrap input stats =
  fun (ctx : Simt.ctx) ->
    let tid = Simt.linear_tid ctx in
    let row = ctx.bx in
    let per_thread = (cfg.cols + threads - 1) / threads in
    let partial = ref 0.0 in
    for l = 0 to per_thread - 1 do
      let c = tid + (l * threads) in
      if c < cfg.cols then begin
        Simt.alu 2;
        partial := !partial +. Simt.gload input (wrap (L.Group_by.apply_ints layout [ row; c ]))
      end
    done;
    Simt.flops cfg.dtype per_thread;
    let total = block_reduce ~tid ( +. ) !partial in
    if tid = 0 then Simt.gstore stats row total

let eager_map2 cfg layout ~wrap input stats output =
  fun (ctx : Simt.ctx) ->
    let tid = Simt.linear_tid ctx in
    let row = ctx.bx in
    let per_thread = (cfg.cols + threads - 1) / threads in
    let s = Simt.gload stats row in
    ignore s;
    for l = 0 to per_thread - 1 do
      let c = tid + (l * threads) in
      if c < cfg.cols then begin
        Simt.alu 2;
        let v = Simt.gload input (wrap (L.Group_by.apply_ints layout [ row; c ])) in
        Simt.gstore output (wrap (L.Group_by.apply_ints layout [ row; c ])) v
      end
    done;
    Simt.flops cfg.dtype per_thread

let run_eager cfg =
  let layout = row_layout cfg in
  let n = cfg.rows * cfg.cols in
  let x, wrap = Mem.create_arena ~label:"x" cfg.dtype n ~cap:(1 lsl 22) in
  let tmp = fst (Mem.create_arena ~label:"tmp" cfg.dtype n ~cap:(1 lsl 22)) in
  let stats = Mem.create ~label:"stats" cfg.dtype cfg.rows in
  let launch body =
    Simt.run ~sample_blocks:4 ~grid:(cfg.rows, 1) ~block:(threads, 1)
      ~smem_words:threads body
  in
  let reports =
    [
      launch (eager_rowreduce cfg layout ~wrap x stats);   (* max *)
      launch (eager_map2 cfg layout ~wrap x stats tmp);    (* subtract + exp *)
      launch (eager_rowreduce cfg layout ~wrap tmp stats); (* sum *)
      launch (eager_map2 cfg layout ~wrap tmp stats tmp);  (* divide *)
    ]
  in
  let time_s = Metrics.sum_times_s reports in
  let useful_bytes =
    2.0 *. float_of_int n *. float_of_int (Mem.dtype_bytes cfg.dtype)
  in
  { time_s; gbps = Metrics.gbps ~useful_bytes time_s; reports }

let check_numerics cfg =
  let cfg = { cfg with compute_values = true } in
  let n = cfg.rows * cfg.cols in
  let input = Mem.create ~label:"x" cfg.dtype n in
  Mem.fill_random input;
  let output = Mem.create ~label:"y" cfg.dtype n in
  let _ = fused cfg ~input ~wrap:Fun.id ~output in
  let worst = ref 0.0 in
  for r = 0 to cfg.rows - 1 do
    let row = Array.init cfg.cols (fun c -> Mem.get input ((r * cfg.cols) + c)) in
    let mx = Array.fold_left Float.max neg_infinity row in
    let exps = Array.map (fun v -> exp (v -. mx)) row in
    let s = Array.fold_left ( +. ) 0.0 exps in
    Array.iteri
      (fun c e ->
        let got = Mem.get output ((r * cfg.cols) + c) in
        worst := Float.max !worst (Float.abs (got -. (e /. s))))
      exps
  done;
  if !worst <= 1e-6 then Ok ()
  else Error (Printf.sprintf "softmax: max |err| = %g" !worst)
