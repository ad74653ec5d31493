type t = {
  name : string;
  num_sms : int;
  warp_size : int;
  clock_ghz : float;
  dram_bw_gbps : float;
  l2_bytes : int;
  l2_bw_gbps : float;
  smem_banks : int;
  smem_bank_bytes : int;
  global_txn_bytes : int;
  fp32_tflops : float;
  fp16_tflops : float;
  fp8_tflops : float;
  tensor_fp16_tflops : float;
  tensor_fp8_tflops : float;
  issue_per_sm_per_cycle : int;
  kernel_launch_us : float;
  max_threads_per_block : int;
  max_warps_per_sm : int;
}

let a100 =
  {
    name = "A100-80GB (simulated)";
    num_sms = 108;
    warp_size = 32;
    clock_ghz = 1.41;
    dram_bw_gbps = 1935.0;
    l2_bytes = 40 * 1024 * 1024;
    l2_bw_gbps = 4500.0;
    smem_banks = 32;
    smem_bank_bytes = 4;
    global_txn_bytes = 32;
    fp32_tflops = 19.5;
    fp16_tflops = 78.0;
    fp8_tflops = 156.0;
    tensor_fp16_tflops = 312.0;
    tensor_fp8_tflops = 624.0;
    issue_per_sm_per_cycle = 4;
    kernel_launch_us = 3.0;
    max_threads_per_block = 1024;
    max_warps_per_sm = 64;
  }

let h100 =
  {
    name = "H100-SXM (simulated)";
    num_sms = 132;
    warp_size = 32;
    clock_ghz = 1.83;
    dram_bw_gbps = 3350.0;
    l2_bytes = 50 * 1024 * 1024;
    l2_bw_gbps = 8000.0;
    smem_banks = 32;
    smem_bank_bytes = 4;
    global_txn_bytes = 32;
    fp32_tflops = 67.0;
    fp16_tflops = 134.0;
    fp8_tflops = 268.0;
    tensor_fp16_tflops = 989.0;
    tensor_fp8_tflops = 1979.0;
    issue_per_sm_per_cycle = 4;
    kernel_launch_us = 3.0;
    max_threads_per_block = 1024;
    max_warps_per_sm = 64;
  }

(* Ada consumer part: fewer resident warps per SM (48 vs the data-center
   64), which is what makes its block-fill threshold differ from the
   A100/H100 presets. *)
let rtx4090 =
  {
    name = "RTX 4090 (simulated)";
    num_sms = 128;
    warp_size = 32;
    clock_ghz = 2.52;
    dram_bw_gbps = 1008.0;
    l2_bytes = 72 * 1024 * 1024;
    l2_bw_gbps = 5000.0;
    smem_banks = 32;
    smem_bank_bytes = 4;
    global_txn_bytes = 32;
    fp32_tflops = 82.6;
    fp16_tflops = 82.6;
    fp8_tflops = 165.2;
    tensor_fp16_tflops = 330.3;
    tensor_fp8_tflops = 660.6;
    issue_per_sm_per_cycle = 4;
    kernel_launch_us = 3.0;
    max_threads_per_block = 1024;
    max_warps_per_sm = 48;
  }

(* Preset registry: the short names the CLI, the compile service and the
   store keys use.  [t.name] is the human-readable marketing string;
   these keys are stable identifiers (lowercase, no spaces) safe to bake
   into content addresses. *)
let presets = [ ("a100", a100); ("h100", h100); ("rtx4090", rtx4090) ]

let resolve name =
  let key = String.lowercase_ascii name in
  match List.assoc_opt key presets with
  | Some d -> Ok (key, d)
  | None ->
    Error
      (Printf.sprintf "unknown device %S (known: %s)" name
         (String.concat ", " (List.map fst presets)))

let preset_name d =
  List.find_map (fun (k, p) -> if p == d || p = d then Some k else None) presets
