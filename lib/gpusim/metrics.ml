type breakdown = {
  launch_s : float;
  compute_s : float;
  dram_s : float;
  l2_s : float;
  smem_s : float;
  issue_s : float;
  total_s : float;
}

let block_fill (d : Device.t) ~threads =
  (* Integer ceiling: a 32-thread block is exactly one warp, a 33-thread
     block two.  A block fills its share of an SM once it brings one
     eighth of the device's resident-warp capacity (the typical
     concurrent-block count) — 8 warps on A100/H100, 6 on RTX 4090 —
     rather than a hardcoded 8; smaller blocks waste issue slots
     proportionally. *)
  let warps_per_block =
    (threads + d.Device.warp_size - 1) / d.Device.warp_size
  in
  let full_warps = max 1 (d.Device.max_warps_per_sm / 8) in
  Float.min 1.0 (float_of_int warps_per_block /. float_of_int full_warps)

let breakdown (r : Simt.report) =
  let d = r.device in
  let gx, gy = r.grid in
  let blocks = float_of_int (gx * gy) in
  let sms = float_of_int d.Device.num_sms in
  (* Occupancy: fraction of the chip the grid can keep busy. *)
  let bx, by = r.block in
  let util = Float.min 1.0 (blocks /. sms) *. block_fill d ~threads:(bx * by) in
  let util = Float.max util 1e-6 in
  let c = r.counters in
  let tera t = t *. 1e12 in
  let compute_s =
    (c.Simt.flops_fp32 /. tera d.Device.fp32_tflops)
    +. (c.Simt.flops_fp16 /. tera d.Device.fp16_tflops)
    +. (c.Simt.flops_fp8 /. tera d.Device.fp8_tflops)
    +. (c.Simt.flops_tensor_fp16 /. tera d.Device.tensor_fp16_tflops)
    +. (c.Simt.flops_tensor_fp8 /. tera d.Device.tensor_fp8_tflops)
  in
  let compute_s = compute_s /. util in
  (* DRAM only sees L2 misses; every transaction still crosses the L2. *)
  let miss_bytes =
    c.Simt.g_bytes
    -. (c.Simt.l2_hits *. float_of_int d.Device.global_txn_bytes)
  in
  let miss_bytes = Float.max miss_bytes 0.0 in
  let dram_s = miss_bytes /. (d.Device.dram_bw_gbps *. 1e9) /. util in
  let l2_s = c.Simt.g_bytes /. (d.Device.l2_bw_gbps *. 1e9) /. util in
  let clock_hz = d.Device.clock_ghz *. 1e9 in
  (* One shared-memory instruction retires per SM per cycle; conflicts
     serialize into extra cycles. *)
  let smem_s = c.Simt.s_cycles /. (clock_hz *. sms *. util) in
  let issue_s =
    c.Simt.insn_warp
    /. (clock_hz *. sms *. util *. float_of_int d.Device.issue_per_sm_per_cycle)
  in
  let launch_s = d.Device.kernel_launch_us *. 1e-6 in
  let body =
    Float.max
      (Float.max compute_s dram_s)
      (Float.max l2_s (Float.max smem_s issue_s))
  in
  {
    launch_s;
    compute_s;
    dram_s;
    l2_s;
    smem_s;
    issue_s;
    total_s = launch_s +. body;
  }

let time_s r = (breakdown r).total_s
let sum_times_s rs = List.fold_left (fun acc r -> acc +. time_s r) 0.0 rs
let gflops ~useful_flops t = useful_flops /. t /. 1e9
let gbps ~useful_bytes t = useful_bytes /. t /. 1e9
