(* Tests for the SIMT simulator: memory model, coalescing, bank
   conflicts, barriers, divergence, sampling, and the roofline metrics. *)

open Lego_gpusim

let run1 ?(grid = (1, 1)) ?(block = (32, 1)) ?(smem_words = 0) body =
  Simt.run ~grid ~block ~smem_words body

let test_buffer_basics () =
  let b = Mem.init Mem.F32 8 float_of_int in
  Alcotest.(check int) "length" 8 (Mem.length b);
  Mem.set b 3 42.0;
  Alcotest.(check (float 0.0)) "get/set" 42.0 (Mem.get b 3);
  Alcotest.(check (float 0.0)) "diff" 39.0
    (Mem.max_abs_diff b (Array.init 8 float_of_int))

let test_coalesced_load () =
  let src = Mem.create Mem.F32 32 in
  let r = run1 (fun ctx -> ignore (Simt.gload src ctx.Simt.tx)) in
  (* 32 consecutive 4-byte loads = 128 bytes = 4 transactions of 32B. *)
  Alcotest.(check (float 0.0)) "txns" 4.0 r.Simt.counters.g_txns;
  Alcotest.(check (float 0.0)) "bytes" 128.0 r.Simt.counters.g_bytes

let test_strided_load () =
  let src = Mem.create Mem.F32 (32 * 8) in
  let r = run1 (fun ctx -> ignore (Simt.gload src (ctx.Simt.tx * 8))) in
  (* Stride 8 elements = 32 bytes: every lane its own transaction. *)
  Alcotest.(check (float 0.0)) "txns" 32.0 r.Simt.counters.g_txns

let test_broadcast_load () =
  let src = Mem.create Mem.F32 4 in
  let r = run1 (fun _ -> ignore (Simt.gload src 0)) in
  Alcotest.(check (float 0.0)) "single txn" 1.0 r.Simt.counters.g_txns

let test_dtype_width_affects_txns () =
  let half = Mem.create Mem.F16 64 in
  let r = run1 (fun ctx -> ignore (Simt.gload half ctx.Simt.tx)) in
  (* 32 consecutive 2-byte loads = 64 bytes = 2 transactions. *)
  Alcotest.(check (float 0.0)) "txns" 2.0 r.Simt.counters.g_txns

let test_bank_conflicts () =
  let degree stride =
    let r =
      run1 ~smem_words:1024 (fun ctx ->
          Simt.sstore (ctx.Simt.tx * stride mod 1024) 1.0)
    in
    r.Simt.counters.s_cycles
  in
  Alcotest.(check (float 0.0)) "stride 1: conflict-free" 1.0 (degree 1);
  Alcotest.(check (float 0.0)) "stride 2: 2-way" 2.0 (degree 2);
  Alcotest.(check (float 0.0)) "stride 16: 16-way" 16.0 (degree 16);
  Alcotest.(check (float 0.0)) "stride 32: fully serialized" 32.0 (degree 32)

let test_bank_conflicts_dtype_aware () =
  (* Banks are byte-addressed (4-byte banks on A100), so the element
     width changes the conflict picture.  F16, stride 1: 32 lanes cover
     64 bytes = 16 words; two lanes share each word (broadcast, free),
     so one cycle. *)
  let degree dtype stride =
    let r =
      Simt.run ~smem_dtype:dtype ~grid:(1, 1) ~block:(32, 1) ~smem_words:1024
        (fun ctx -> Simt.sstore (ctx.Simt.tx * stride mod 1024) 1.0)
    in
    r.Simt.counters.s_cycles
  in
  Alcotest.(check (float 0.0)) "f16 stride 1: conflict-free" 1.0
    (degree Mem.F16 1);
  (* F16, stride 32: lane t hits word t*16, i.e. banks {0, 16} only, 16
     distinct words per bank. *)
  Alcotest.(check (float 0.0)) "f16 stride 32: 16-way" 16.0
    (degree Mem.F16 32);
  (* F32 keeps the word-indexed behaviour (word = element on 4-byte
     banks), so the classic stride-32 full serialization holds. *)
  Alcotest.(check (float 0.0)) "f32 stride 32: 32-way" 32.0
    (degree Mem.F32 32);
  (* F8, stride 1: 32 lanes cover 32 bytes = 8 words, all broadcast. *)
  Alcotest.(check (float 0.0)) "f8 stride 1: conflict-free" 1.0
    (degree Mem.F8 1)

let test_arena_fold_negative_addresses () =
  let _buf, fold = Mem.create_arena Mem.F32 (1 lsl 20) ~cap:1024 in
  List.iter
    (fun addr ->
      let f = fold addr in
      Alcotest.(check bool)
        (Printf.sprintf "fold %d in bounds" addr)
        true
        (f >= 0 && f < 1024))
    [ -1; -5; -1024; -1025; 0; 1023; 1024; 123456789; -123456789 ];
  (* Euclidean: congruent mod cap, so intra-warp deltas survive. *)
  Alcotest.(check int) "fold -5" 1019 (fold (-5));
  Alcotest.(check int) "fold -1024" 0 (fold (-1024));
  Alcotest.(check int) "delta preserved" (fold 7 - fold 6 + 1024)
    (fold (-6) - fold (-7) + 1024)

let test_broadcast_shared_free () =
  let r = run1 ~smem_words:4 (fun _ -> ignore (Simt.sload 0)) in
  Alcotest.(check (float 0.0)) "broadcast is one cycle" 1.0
    r.Simt.counters.s_cycles

let test_barrier_orders_memory () =
  (* Producer threads fill shared memory; all threads read a neighbour's
     slot after the barrier.  Without barrier semantics the read of slot
     (tx+1) mod 32 could see a stale zero. *)
  let out = Mem.create Mem.F32 32 in
  ignore
    (run1 ~smem_words:32 (fun ctx ->
         let tx = ctx.Simt.tx in
         Simt.sstore tx (float_of_int (tx * 10));
         Simt.sync ();
         Simt.gstore out tx (Simt.sload ((tx + 1) mod 32))));
  for tx = 0 to 31 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "slot %d" tx)
      (float_of_int ((tx + 1) mod 32 * 10))
      (Mem.get out tx)
  done

let test_divergent_threads_complete () =
  (* Odd threads do extra work; everybody must still finish and the
     barrier must hold with partial arrival sets per round. *)
  let out = Mem.create Mem.F32 32 in
  ignore
    (run1 ~smem_words:32 (fun ctx ->
         let tx = ctx.Simt.tx in
         if tx mod 2 = 1 then begin
           Simt.sstore tx 1.0;
           Simt.sstore tx 2.0
         end;
         Simt.sync ();
         Simt.gstore out tx (if tx mod 2 = 1 then Simt.sload tx else -1.0)));
  Alcotest.(check (float 0.0)) "odd wrote" 2.0 (Mem.get out 1);
  Alcotest.(check (float 0.0)) "even skipped" (-1.0) (Mem.get out 0)

let test_out_of_bounds_rejected () =
  let src = Mem.create ~label:"small" Mem.F32 4 in
  Alcotest.check_raises "global OOB"
    (Invalid_argument "Simt: buffer \"small\" access 4 outside 0..3")
    (fun () -> ignore (run1 (fun _ -> ignore (Simt.gload src 4))));
  Alcotest.check_raises "shared OOB"
    (Invalid_argument "Simt: shared access 8 outside 0..7") (fun () ->
      ignore (run1 ~smem_words:8 (fun _ -> Simt.sstore 8 0.0)))

let test_sampling_scales_counters () =
  let src = Mem.create Mem.F32 (64 * 32) in
  let body ctx =
    ignore (Simt.gload src ((ctx.Simt.bx * 32) + ctx.Simt.tx))
  in
  let full = Simt.run ~grid:(64, 1) ~block:(32, 1) ~smem_words:0 body in
  let sampled =
    Simt.run ~sample_blocks:4 ~grid:(64, 1) ~block:(32, 1) ~smem_words:0 body
  in
  Alcotest.(check int) "simulated subset" 4 sampled.Simt.blocks_simulated;
  Alcotest.(check (float 1e-9))
    "scaled bytes equal full bytes" full.Simt.counters.g_bytes
    sampled.Simt.counters.g_bytes

let test_flops_rates () =
  let r =
    run1 (fun _ ->
        Simt.flops Mem.F32 10;
        Simt.flops ~tensor:true Mem.F16 100)
  in
  (* Per-thread counts sum across the 32-lane warp. *)
  Alcotest.(check (float 0.0)) "fp32" 320.0 r.Simt.counters.flops_fp32;
  Alcotest.(check (float 0.0)) "tensor fp16" 3200.0
    r.Simt.counters.flops_tensor_fp16

let test_block_limits () =
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Simt.run: block exceeds device thread limit")
    (fun () ->
      ignore (Simt.run ~grid:(1, 1) ~block:(64, 64) ~smem_words:0 (fun _ -> ())))

let test_metrics_roofline () =
  (* A memory-only kernel is DRAM-bound; adding huge flops makes it
     compute-bound; times are monotone in the dominant term. *)
  let src = Mem.create Mem.F32 (1 lsl 16) in
  let mem_kernel ctx =
    for l = 0 to 63 do
      ignore (Simt.gload src ((ctx.Simt.bx * 2048) + (l * 32) + ctx.Simt.tx))
    done
  in
  let r1 = Simt.run ~grid:(32, 1) ~block:(32, 1) ~smem_words:0 mem_kernel in
  let b1 = Metrics.breakdown r1 in
  Alcotest.(check bool) "dram beats issue" true
    (b1.Metrics.dram_s >= b1.Metrics.issue_s || b1.Metrics.dram_s > 0.0);
  let compute_kernel _ = Simt.flops ~tensor:true Mem.F16 (1 lsl 22) in
  let r2 = Simt.run ~grid:(32, 1) ~block:(32, 1) ~smem_words:0 compute_kernel in
  let b2 = Metrics.breakdown r2 in
  Alcotest.(check bool) "compute dominates" true
    (b2.Metrics.compute_s > b2.Metrics.dram_s);
  Alcotest.(check bool) "total includes launch" true
    (b2.Metrics.total_s > b2.Metrics.compute_s)

let test_occupancy_penalty () =
  (* The same per-block work on a 1-block grid must not be faster than on
     a grid that fills the machine (per-block time comparison). *)
  let body _ = Simt.flops Mem.F32 (1 lsl 18) in
  let small = Simt.run ~grid:(1, 1) ~block:(256, 1) ~smem_words:0 body in
  let large =
    Simt.run ~sample_blocks:2 ~grid:(1080, 1) ~block:(256, 1) ~smem_words:0 body
  in
  let t_small = Metrics.time_s small in
  let t_large_per_block =
    Metrics.time_s large /. 1080.0
  in
  Alcotest.(check bool) "full grid amortizes better" true
    (t_large_per_block < t_small)

(* --- Metrics.breakdown edge cases ---------------------------------------- *)

let zero_counters () : Simt.counters =
  {
    insn_warp = 0.0;
    g_txns = 0.0;
    g_bytes = 0.0;
    l2_hits = 0.0;
    s_accesses = 0.0;
    s_cycles = 0.0;
    flops_fp32 = 0.0;
    flops_fp16 = 0.0;
    flops_fp8 = 0.0;
    flops_tensor_fp16 = 0.0;
    flops_tensor_fp8 = 0.0;
    syncs = 0.0;
  }

let mk_report ?(device = Device.a100) ?(grid = (1, 1)) ?(block = (32, 1))
    counters : Simt.report =
  {
    Simt.device;
    grid;
    block;
    blocks_simulated = fst grid * snd grid;
    launches = 1;
    counters;
  }

let test_breakdown_zero_counters () =
  (* A report with no recorded work costs exactly the launch latency:
     every roofline term is 0 and total = launch, with no division
     blow-ups from the zero counters. *)
  let b = Metrics.breakdown (mk_report (zero_counters ())) in
  Alcotest.(check (float 0.0)) "compute" 0.0 b.Metrics.compute_s;
  Alcotest.(check (float 0.0)) "dram" 0.0 b.Metrics.dram_s;
  Alcotest.(check (float 0.0)) "smem" 0.0 b.Metrics.smem_s;
  Alcotest.(check (float 0.0)) "issue" 0.0 b.Metrics.issue_s;
  Alcotest.(check (float 0.0)) "launch"
    (Device.a100.Device.kernel_launch_us *. 1e-6)
    b.Metrics.launch_s;
  Alcotest.(check (float 0.0)) "total = launch" b.Metrics.launch_s
    b.Metrics.total_s

let test_breakdown_launch_dominated () =
  (* A single tiny block: the 3 us launch latency dwarfs the body. *)
  let r = run1 (fun _ -> Simt.alu 1) in
  let b = Metrics.breakdown r in
  let body = b.Metrics.total_s -. b.Metrics.launch_s in
  Alcotest.(check bool) "body is positive" true (body > 0.0);
  Alcotest.(check bool) "launch dominates" true
    (b.Metrics.launch_s /. b.Metrics.total_s > 0.9);
  Alcotest.(check (float 0.0)) "total = launch + body"
    (b.Metrics.launch_s
    +. Float.max
         (Float.max b.Metrics.compute_s b.Metrics.dram_s)
         (Float.max b.Metrics.l2_s
            (Float.max b.Metrics.smem_s b.Metrics.issue_s)))
    b.Metrics.total_s

let test_sum_times_empty () =
  Alcotest.(check (float 0.0)) "sum of no reports" 0.0 (Metrics.sum_times_s [])

let test_breakdown_exact_values () =
  (* Mirror the model arithmetic (same operations, same order as
     metrics.ml) on hand-picked counters and check bit-exact equality. *)
  let c = zero_counters () in
  c.Simt.s_cycles <- 64.0;
  c.Simt.insn_warp <- 128.0;
  c.Simt.g_bytes <- 1024.0;
  c.Simt.flops_fp32 <- 1e6;
  let b = Metrics.breakdown (mk_report ~grid:(2, 1) ~block:(32, 4) c) in
  let d = Device.a100 in
  (* grid (2,1), block (32,4): exactly 4 warps, so block_fill = 4/8. *)
  let warps_per_block = ((32 * 4) + d.Device.warp_size - 1) / d.Device.warp_size in
  let block_fill = Float.min 1.0 (float_of_int warps_per_block /. 8.0) in
  let util =
    Float.min 1.0 (2.0 /. float_of_int d.Device.num_sms) *. block_fill
  in
  let clock_hz = d.Device.clock_ghz *. 1e9 in
  let sms = float_of_int d.Device.num_sms in
  Alcotest.(check (float 0.0)) "compute"
    (1e6 /. (d.Device.fp32_tflops *. 1e12) /. util)
    b.Metrics.compute_s;
  Alcotest.(check (float 0.0)) "dram"
    (1024.0 /. (d.Device.dram_bw_gbps *. 1e9) /. util)
    b.Metrics.dram_s;
  Alcotest.(check (float 0.0)) "smem"
    (64.0 /. (clock_hz *. sms *. util))
    b.Metrics.smem_s;
  Alcotest.(check (float 0.0)) "issue"
    (128.0
    /. (clock_hz *. sms *. util
       *. float_of_int d.Device.issue_per_sm_per_cycle))
    b.Metrics.issue_s;
  Alcotest.(check (float 0.0)) "l2"
    (1024.0 /. (d.Device.l2_bw_gbps *. 1e9) /. util)
    b.Metrics.l2_s;
  Alcotest.(check (float 0.0)) "total"
    (b.Metrics.launch_s
    +. Float.max
         (Float.max b.Metrics.compute_s b.Metrics.dram_s)
         (Float.max b.Metrics.l2_s
            (Float.max b.Metrics.smem_s b.Metrics.issue_s)))
    b.Metrics.total_s

(* --- Regression tests for the ISSUE 6 cost-model bugfixes ---------------- *)

let test_block_fill_ceiling () =
  (* warps-per-block must be the integer ceiling of threads/32: a
     32-thread block is exactly one warp (fill 1/8), not ~1.97 warps. *)
  let d = Device.a100 in
  Alcotest.(check (float 0.0)) "32 threads = 1 warp" (1.0 /. 8.0)
    (Metrics.block_fill d ~threads:32);
  Alcotest.(check (float 0.0)) "33 threads = 2 warps" (2.0 /. 8.0)
    (Metrics.block_fill d ~threads:33);
  Alcotest.(check (float 0.0)) "256 threads = 8 warps = full" 1.0
    (Metrics.block_fill d ~threads:256)

let test_block_fill_derived_from_device () =
  (* The fill threshold is max_warps_per_sm / 8, not a hardcoded 8:
     presets with the same warp capacity agree everywhere, and the
     RTX 4090 (48 resident warps -> threshold 6) saturates earlier. *)
  List.iter
    (fun threads ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "a100 = h100 at %d threads" threads)
        (Metrics.block_fill Device.a100 ~threads)
        (Metrics.block_fill Device.h100 ~threads))
    [ 32; 6 * 32; 8 * 32; 1024 ];
  (* 6 warps: 6/8 of an A100 SM, but a full RTX 4090 SM. *)
  Alcotest.(check (float 0.0)) "a100 at 6 warps" (6.0 /. 8.0)
    (Metrics.block_fill Device.a100 ~threads:(6 * 32));
  Alcotest.(check (float 0.0)) "rtx4090 at 6 warps" 1.0
    (Metrics.block_fill Device.rtx4090 ~threads:(6 * 32));
  Alcotest.(check (float 0.0)) "rtx4090 at 3 warps" (3.0 /. 6.0)
    (Metrics.block_fill Device.rtx4090 ~threads:(3 * 32))

let test_sampling_spans_grid () =
  (* Proportional stride: with 100 blocks and 40 samples the old
     truncating step (100/40 = 2) stranded blocks 79..99; the sample
     must span the whole grid with no duplicate block. *)
  let idx = Simt.sample_indices ~total:100 ~simulated:40 in
  Alcotest.(check int) "sample size" 40 (List.length idx);
  Alcotest.(check int) "no duplicates" 40
    (List.length (List.sort_uniq compare idx));
  Alcotest.(check bool) "first sample is block 0" true (List.hd idx = 0);
  List.iter
    (fun b -> Alcotest.(check bool) "in range" true (b >= 0 && b < 100))
    idx;
  Alcotest.(check bool) "tail is visited" true (List.exists (fun b -> b >= 95) idx);
  (* End-to-end: a kernel whose cost differs in the grid tail.  Blocks
     >= 80 do a fully strided load (32 txns), earlier blocks a broadcast
     (1 txn); the sampled estimate must account for the tail. *)
  let src = Mem.create Mem.F32 (100 * 32 * 8) in
  let body ctx =
    if ctx.Simt.bx >= 80 then
      ignore (Simt.gload src ((ctx.Simt.bx * 256) + (ctx.Simt.tx * 8)))
    else ignore (Simt.gload src (ctx.Simt.bx * 256))
  in
  let sampled =
    Simt.run ~sample_blocks:40 ~grid:(100, 1) ~block:(32, 1) ~smem_words:0 body
  in
  let expected_raw =
    List.fold_left
      (fun acc b -> acc + if b >= 80 then 32 else 1)
      0
      (Simt.sample_indices ~total:100 ~simulated:40)
  in
  let scale = 100.0 /. 40.0 in
  Alcotest.(check (float 1e-9)) "tail txns are estimated"
    (float_of_int expected_raw *. scale)
    sampled.Simt.counters.g_txns;
  Alcotest.(check bool) "estimate sees the expensive tail" true
    (sampled.Simt.counters.g_txns > 100.0)

let test_raising_kernel_leaves_counters_untouched () =
  (* Bugfix: OOB used to be detected only when the round executed, after
     the access was already costed.  With park-time validation plus
     merge-after-completion, a caller-supplied counters record must stay
     untouched when the launch raises. *)
  let src = Mem.create ~label:"tiny" Mem.F32 4 in
  let c = Simt.fresh_counters () in
  (try
     ignore
       (Simt.run ~counters:c ~grid:(1, 1) ~block:(32, 1) ~smem_words:8
          (fun ctx ->
            Simt.sstore (ctx.Simt.tx mod 8) 1.0;
            Simt.sync ();
            (* lane 5 goes out of bounds *)
            ignore (Simt.gload src (if ctx.Simt.tx = 5 then 4 else 0))));
     Alcotest.fail "kernel should have raised"
   with Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "insn" 0.0 c.Simt.insn_warp;
  Alcotest.(check (float 0.0)) "txns" 0.0 c.Simt.g_txns;
  Alcotest.(check (float 0.0)) "bytes" 0.0 c.Simt.g_bytes;
  Alcotest.(check (float 0.0)) "s_accesses" 0.0 c.Simt.s_accesses;
  Alcotest.(check (float 0.0)) "s_cycles" 0.0 c.Simt.s_cycles;
  Alcotest.(check (float 0.0)) "syncs" 0.0 c.Simt.syncs;
  (* and a successful launch accumulates into the same record *)
  let r =
    Simt.run ~counters:c ~grid:(1, 1) ~block:(32, 1) ~smem_words:0 (fun _ ->
        Simt.alu 3)
  in
  Alcotest.(check (float 0.0)) "accumulated" 3.0 c.Simt.insn_warp;
  Alcotest.(check bool) "report shares the record" true (r.Simt.counters == c)

let test_fp8_scalar_rate () =
  (* Bugfix: scalar FP8 was billed at the FP16 rate.  The same flop
     count in FP8 must now be strictly cheaper than in FP16 (2x rate on
     both presets), and exactly at [Device.fp8_tflops]. *)
  let mk fl_field =
    let c = zero_counters () in
    fl_field c;
    Metrics.breakdown (mk_report ~grid:(108, 1) ~block:(256, 1) c)
  in
  let b8 = mk (fun c -> c.Simt.flops_fp8 <- 1e9) in
  let b16 = mk (fun c -> c.Simt.flops_fp16 <- 1e9) in
  Alcotest.(check bool) "fp8 is cheaper than fp16" true
    (b8.Metrics.compute_s < b16.Metrics.compute_s);
  Alcotest.(check (float 0.0)) "fp8 billed at its own rate"
    (1e9 /. (Device.a100.Device.fp8_tflops *. 1e12))
    b8.Metrics.compute_s;
  Alcotest.(check (float 1e-12)) "a100 fp8 = 2x fp16"
    (b16.Metrics.compute_s /. 2.0)
    b8.Metrics.compute_s;
  Alcotest.(check bool) "h100 preset consistent" true
    (Device.h100.Device.fp8_tflops = 2.0 *. Device.h100.Device.fp16_tflops)

let test_l2_hits_and_dram_relief () =
  (* Re-reading a resident working set hits in L2: the second pass adds
     transactions and bytes but only the first pass reaches DRAM. *)
  let src = Mem.create Mem.F32 2048 in
  let body ctx =
    ignore (Simt.gload src (ctx.Simt.tx * 8));
    ignore (Simt.gload src (ctx.Simt.tx * 8))
  in
  let r = Simt.run ~grid:(1, 1) ~block:(32, 1) ~smem_words:0 body in
  Alcotest.(check (float 0.0)) "txns count both passes" 64.0
    r.Simt.counters.g_txns;
  Alcotest.(check (float 0.0)) "second pass hits" 32.0 r.Simt.counters.l2_hits;
  let b = Metrics.breakdown r in
  let d = Device.a100 in
  let util =
    Float.min 1.0 (1.0 /. float_of_int d.Device.num_sms)
    *. Metrics.block_fill d ~threads:32
  in
  Alcotest.(check (float 0.0)) "dram only sees misses"
    (1024.0 (* 32 misses x 32B *) /. (d.Device.dram_bw_gbps *. 1e9) /. util)
    b.Metrics.dram_s;
  (* Streaming kernel: every sector touched once, no hits. *)
  let stream =
    Simt.run ~grid:(4, 1) ~block:(32, 1) ~smem_words:0 (fun ctx ->
        ignore (Simt.gload src ((ctx.Simt.bx * 32) + ctx.Simt.tx)))
  in
  Alcotest.(check (float 0.0)) "streaming never hits" 0.0
    stream.Simt.counters.l2_hits

(* The pre-O(1) L2 replacement policy, kept verbatim as the reference:
   unique last-use ticks, the victim is the minimum tick found by a full
   table scan.  The rewritten recency-list cache must reproduce its
   hit/miss sequence bit for bit (the unique-min-tick victim {e is} the
   list head), it just stops paying O(capacity) per miss. *)
module L2_ref = struct
  type t = {
    capacity : int;
    table : (int * int, int) Hashtbl.t;
    mutable tick : int;
  }

  let create ~capacity = { capacity; table = Hashtbl.create 64; tick = 0 }

  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun sector tick acc ->
          match acc with
          | Some (_, best) when best <= tick -> acc
          | _ -> Some (sector, tick))
        t.table None
    in
    match victim with
    | Some (sector, _) -> Hashtbl.remove t.table sector
    | None -> ()

  let access t sector =
    t.tick <- t.tick + 1;
    if Hashtbl.mem t.table sector then (
      Hashtbl.replace t.table sector t.tick;
      true)
    else (
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      Hashtbl.replace t.table sector t.tick;
      false)
end

let test_l2_lru_matches_tick_scan_reference () =
  let check ~capacity ~trace name =
    let fast = L2.create_sized ~capacity in
    let slow = L2_ref.create ~capacity in
    List.iteri
      (fun i sector ->
        let h = L2.access fast sector and h' = L2_ref.access slow sector in
        if h <> h' then
          Alcotest.failf "%s: access %d (sector %d,%d): list %b, tick-scan %b"
            name i (fst sector) (snd sector) h h')
      trace
  in
  (* Deterministic eviction-heavy patterns at tiny capacity. *)
  let seq = List.init 64 (fun i -> (0, i mod 7)) in
  check ~capacity:4 ~trace:seq "cyclic working set > capacity";
  check ~capacity:1 ~trace:seq "capacity 1";
  let interleaved =
    List.concat_map (fun i -> [ (0, i mod 5); (1, i mod 3); (0, 2) ]) (List.init 40 Fun.id)
  in
  check ~capacity:3 ~trace:interleaved "two buffers + a hot sector";
  (* Seeded random traces across capacities: hit/miss sequences must be
     identical at every step. *)
  let st = Random.State.make [| 0xCACE; 2026 |] in
  List.iter
    (fun capacity ->
      let trace =
        List.init 2000 (fun _ ->
            (Random.State.int st 3, Random.State.int st (3 * capacity)))
      in
      check ~capacity ~trace (Printf.sprintf "random trace, capacity %d" capacity))
    [ 2; 5; 16; 64 ];
  (* Invalid capacities are rejected. *)
  List.iter
    (fun capacity ->
      Alcotest.(check bool) "bad capacity rejected" true
        (match L2.create_sized ~capacity with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0; -3 ]

(* The stamped O(n) counters against the quadratic-scan reference they
   replaced, outcome for outcome — including which [Invalid_argument]
   fires: more distinct values than warp lanes ("batch > warp"), and a
   negative word whose bank remainder is negative.  Values are small,
   very large, or negative; entries past [n] must be ignored; and the
   per-domain set carries over from call to call across devices, element
   widths and both counters. *)
let prop_counters_match_quadratic_reference =
  (* One value kind per batch: a negative word usually raises before a
     batch can overflow, so mixing kinds in every batch would starve
     the overflow case. *)
  let value =
    QCheck2.Gen.(
      let large = map (fun k -> (max_int / 16) - k) (int_range 0 1000)
      and tiny = map (fun k -> min_int + k) (int_range 0 1000) in
      oneofl
        [
          int_range 0 64;
          oneof [ int_range 0 200_000; large ];
          oneof [ int_range 0 64; int_range (-64) (-1); tiny ];
        ])
  in
  let print (d, eb, a, n) =
    Printf.sprintf "%s elem_bytes=%d n=%d [%s]" d eb n
      (String.concat "; " (Array.to_list (Array.map string_of_int a)))
  in
  QCheck2.Test.make ~name:"O(n) counters = quadratic reference" ~count:3000
    ~print
    QCheck2.Gen.(
      oneofl (List.map fst Device.presets) >>= fun d ->
      oneofl [ 1; 2; 4; 8; 16 ] >>= fun eb ->
      value >>= fun value ->
      array_size (int_range 1 48) value >>= fun pool ->
      (* Either draws from the pool (duplicates) or the pool itself
         (mostly distinct: past 32 values, the overflow case). *)
      let draw = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
      oneof
        [ pure pool; int_range 0 48 >>= fun len -> array_size (pure len) draw ]
      >>= fun a ->
      int_range 0 (Array.length a) >>= fun n -> pure (d, eb, a, n))
    (fun (d, elem_bytes, a, n) ->
      let device = List.assoc d Device.presets in
      let outcome f =
        match f () with v -> Ok v | exception Invalid_argument m -> Error m
      in
      outcome (fun () -> Access.bank_cycles_arr device ~elem_bytes a n)
      = outcome (fun () -> Reference.bank_cycles_arr device ~elem_bytes a n)
      && outcome (fun () -> Access.txn_count_arr device ~elem_bytes a n)
         = outcome (fun () -> Reference.txn_count_arr device ~elem_bytes a n))

let suite =
  ( "gpusim",
    [
      QCheck_alcotest.to_alcotest ~long:false
        prop_counters_match_quadratic_reference;
      Alcotest.test_case "L2 O(1) LRU = tick-scan reference" `Quick
        test_l2_lru_matches_tick_scan_reference;
      Alcotest.test_case "buffers" `Quick test_buffer_basics;
      Alcotest.test_case "coalesced loads" `Quick test_coalesced_load;
      Alcotest.test_case "strided loads" `Quick test_strided_load;
      Alcotest.test_case "broadcast load" `Quick test_broadcast_load;
      Alcotest.test_case "dtype width" `Quick test_dtype_width_affects_txns;
      Alcotest.test_case "bank conflicts" `Quick test_bank_conflicts;
      Alcotest.test_case "bank conflicts are dtype-aware" `Quick
        test_bank_conflicts_dtype_aware;
      Alcotest.test_case "arena folds negative addresses" `Quick
        test_arena_fold_negative_addresses;
      Alcotest.test_case "shared broadcast" `Quick test_broadcast_shared_free;
      Alcotest.test_case "barrier memory ordering" `Quick
        test_barrier_orders_memory;
      Alcotest.test_case "divergence" `Quick test_divergent_threads_complete;
      Alcotest.test_case "bounds checks" `Quick test_out_of_bounds_rejected;
      Alcotest.test_case "block sampling" `Quick test_sampling_scales_counters;
      Alcotest.test_case "flop categories" `Quick test_flops_rates;
      Alcotest.test_case "block limits" `Quick test_block_limits;
      Alcotest.test_case "roofline metrics" `Quick test_metrics_roofline;
      Alcotest.test_case "occupancy penalty" `Quick test_occupancy_penalty;
      Alcotest.test_case "breakdown: all-zero counters" `Quick
        test_breakdown_zero_counters;
      Alcotest.test_case "breakdown: launch-dominated tiny grid" `Quick
        test_breakdown_launch_dominated;
      Alcotest.test_case "sum_times_s []" `Quick test_sum_times_empty;
      Alcotest.test_case "breakdown: exact model values" `Quick
        test_breakdown_exact_values;
      Alcotest.test_case "bugfix: block_fill integer ceiling" `Quick
        test_block_fill_ceiling;
      Alcotest.test_case "bugfix: block_fill threshold from device" `Quick
        test_block_fill_derived_from_device;
      Alcotest.test_case "bugfix: sampling spans the grid tail" `Quick
        test_sampling_spans_grid;
      Alcotest.test_case "bugfix: raising kernel leaves counters untouched"
        `Quick test_raising_kernel_leaves_counters_untouched;
      Alcotest.test_case "bugfix: scalar fp8 rate" `Quick test_fp8_scalar_rate;
      Alcotest.test_case "l2: hits relieve dram" `Quick
        test_l2_hits_and_dram_relief;
    ] )
