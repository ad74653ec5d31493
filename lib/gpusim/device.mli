(** GPU device models for the simulator.

    The paper's evaluation machine is an NVIDIA A100-80GB; {!a100}
    reproduces its headline rates ({!h100} is provided for what-if
    comparisons).  Only ratios matter for the reproduction (the paper's
    claims are relative), but realistic constants keep the reported
    GFLOP/s and GB/s in familiar territory. *)

type t = {
  name : string;
  num_sms : int;
  warp_size : int;
  clock_ghz : float;
  dram_bw_gbps : float;  (** achievable global-memory bandwidth, GB/s *)
  l2_bytes : int;  (** L2 data-cache capacity *)
  l2_bw_gbps : float;  (** achievable L2 bandwidth, GB/s *)
  smem_banks : int;
  smem_bank_bytes : int;
  global_txn_bytes : int;
      (** global-memory transaction granularity; also the L2 sector
          size tracked by {!L2} *)
  fp32_tflops : float;
  fp16_tflops : float;  (** CUDA-core half rate *)
  fp8_tflops : float;
      (** CUDA-core scalar FP8 rate.  A100 has no FP8 units; the paper's
          FP8 benchmark exercises INT8/FP8-rate paths, modeled at 2x the
          scalar FP16 rate, consistently with the tensor-core entry
          below. *)
  tensor_fp16_tflops : float;
  tensor_fp8_tflops : float;
      (** A100 tensor cores do not speed FP8 beyond FP16; the paper's FP8
          benchmark exercises INT8/FP8-rate paths, modeled at 2x FP16. *)
  issue_per_sm_per_cycle : int;  (** warp instructions per SM per cycle *)
  kernel_launch_us : float;
  max_threads_per_block : int;
  max_warps_per_sm : int;
      (** resident-warp capacity of one SM; {!Metrics.block_fill}
          derives its full-occupancy threshold from this instead of a
          hardcoded warp count, so presets with smaller warp capacity
          (e.g. {!rtx4090}) saturate with smaller blocks *)
}

val a100 : t
val h100 : t

val rtx4090 : t
(** Ada consumer part: 48 resident warps per SM (vs 64 on A100/H100),
    i.e. a lower block-fill saturation point. *)

val presets : (string * t) list
(** The named device presets (["a100"]; ["h100"]; ["rtx4090"]) under
    stable lowercase keys — the identifiers the CLI's [--device], the
    compile service's requests and the content-addressed store keys use
    (never [t.name], whose marketing string is free to change). *)

val resolve : string -> (string * t, string) result
(** The preset a name denotes, case-insensitively, with its key; or, for
    any other name, the one error every surface reports:
    [unknown device "NAME" (known: a100, h100, rtx4090)]. *)

val preset_name : t -> string option
(** The preset key of a device, when it is one of {!presets} (a
    hand-built device has none). *)
