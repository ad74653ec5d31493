(** Roofline time model turning simulator counters into kernel times.

    A kernel's time is the launch overhead plus the maximum of its
    compute-, DRAM-, L2-, shared-memory- and issue-limited times — the
    standard roofline approximation.  DRAM traffic only counts L2
    {e misses} (times the sector size), so compute-dense kernels whose
    working set fits in L2 are no longer spuriously DRAM-bound; all
    transactions still pay the L2-bandwidth term.  Small grids scale
    throughput by SM occupancy, which is what makes per-GEMM launches
    lose to grouped launches in the paper's figure 12c. *)

type breakdown = {
  launch_s : float;
  compute_s : float;
  dram_s : float;
  l2_s : float;
  smem_s : float;
  issue_s : float;
  total_s : float;
}

val block_fill : Device.t -> threads:int -> float
(** [block_fill d ~threads] is the fraction of an SM's issue slots a
    block of [threads] threads keeps busy: the block's warp count
    (integer {e ceiling} of [threads / warp_size]) over the device's
    full-occupancy threshold [max 1 (max_warps_per_sm / 8)], clamped to
    1.  On A100/H100 (64 resident warps) the threshold is 8 — a
    32-thread block is exactly one warp (1/8), a 33-thread block two
    (2/8); on RTX 4090 (48 resident warps) it is 6, so 6 warps already
    saturate. *)

val breakdown : Simt.report -> breakdown

val time_s : Simt.report -> float
(** [breakdown.total_s]. *)

val sum_times_s : Simt.report list -> float
(** Serialized launches: the sum of per-launch times. *)

val gflops : useful_flops:float -> float -> float
(** [gflops ~useful_flops time_s]: throughput in GFLOP/s based on the
    algorithmic (not simulated) operation count, as the paper plots. *)

val gbps : useful_bytes:float -> float -> float
