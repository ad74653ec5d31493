(** A SIMT GPU simulator.

    Kernels are plain OCaml functions of a thread context.  Every thread
    of a block runs as a fiber (OCaml 5 effect handlers); fibers advance
    in lock-step rounds, so the simulator sees, per round and per warp,
    the set of addresses a warp touches together — exactly the
    information needed to model global-memory coalescing and
    shared-memory bank conflicts, the two mechanisms behind the paper's
    CUDA/MLIR evaluation (figures 13 and 14).

    Cost accounting (see {!Metrics} for the time model):
    - a warp's global access costs one transaction per distinct
      [global_txn_bytes] segment touched; each segment is filtered
      through a per-launch {!L2} sector cache and hits are counted;
    - a warp's shared access costs one cycle per maximal bank-conflict
      degree (same-address broadcast is free);
    - [flops]/[alu] record arithmetic work;
    - control rounds cost one issued warp-instruction each.

    Addresses are validated when an op parks, {e before} any cost is
    recorded: an out-of-bounds access raises [Invalid_argument] naming
    the address and the valid range, and the launch returns no report.

    Large grids can be sampled: only a representative subset of blocks is
    executed and the counters are scaled — block interactions do not
    exist in the model, so the scaling is exact for uniform grids. *)

type ctx = {
  bx : int;
  by : int;
  tx : int;
  ty : int;
  bdx : int;
  bdy : int;
  gdx : int;
  gdy : int;
}

val linear_tid : ctx -> int

(** {2 Device operations (valid only inside a running kernel)} *)

val gload : Mem.buffer -> int -> float
val gstore : Mem.buffer -> int -> float -> unit

val sload : int -> float
(** Shared-memory load of one element (the element width is the [run]
    call's [smem_dtype], F32 by default). *)

val sstore : int -> float -> unit
val sync : unit -> unit
(** Block-wide barrier. *)

val flops : ?tensor:bool -> Mem.dtype -> int -> unit
(** Record [n] floating-point operations of the given precision;
    [tensor:true] uses the tensor-core rate. *)

val alu : int -> unit
(** Record [n] integer/index-arithmetic operations (one warp instruction
    each) — kernels pass the {!Lego_symbolic.Cost.ops} count of their
    index expressions here, tying the paper's cost model to the
    simulation. *)

val noop : unit -> unit
(** Park for one lock-step round without doing (or costing) anything.
    Predicated kernels have masked-off lanes call [noop] wherever active
    lanes perform a real op, keeping the warp converged so the per-warp
    batching (and the {!Fastpath} equivalence) stays exact. *)

(** {2 Running kernels} *)

type counters = {
  mutable insn_warp : float;
  mutable g_txns : float;
  mutable g_bytes : float;
  mutable l2_hits : float;
  mutable s_accesses : float;
  mutable s_cycles : float;
  mutable flops_fp32 : float;
  mutable flops_fp16 : float;
  mutable flops_fp8 : float;
  mutable flops_tensor_fp16 : float;
  mutable flops_tensor_fp8 : float;
  mutable syncs : float;
}

val fresh_counters : unit -> counters

type report = {
  device : Device.t;
  grid : int * int;
  block : int * int;
  blocks_simulated : int;
  counters : counters;
}

(** {2 Warp cost kernels (shared with {!Fastpath} and the tuner)} *)

val cost_global :
  Device.t -> L2.t -> counters -> (Mem.buffer * int) list -> unit
(** Cost one warp-wide batch of global accesses: one transaction per
    distinct [(buffer, segment)] pair, in ascending segment order
    through [l2], plus one issued warp instruction. *)

val cost_shared : Device.t -> elem_bytes:int -> counters -> int list -> unit
(** Cost one warp-wide batch of shared accesses at the bank-conflict
    degree of {!Access.bank_cycles}, plus one issued warp instruction. *)

val record_flops : counters -> Mem.dtype -> bool -> int -> int -> unit

val sample_indices : total:int -> simulated:int -> int list
(** The block ids simulated by a sampled run: [s * total / simulated]
    for [s] in [0 .. simulated-1] — proportionally strided, so the
    sample spans the whole grid (no stranded tail) with no duplicates
    whenever [simulated <= total]. *)

val launch :
  device:Device.t ->
  ?sample_blocks:int ->
  grid:int * int ->
  block:int * int ->
  (L2.t -> counters -> bx:int -> by:int -> unit) ->
  report
(** The launch frame {!run} and {!Fastpath.run} share.  [launch ~grid
    ~block start] validates the grid, the block and [sample_blocks],
    applies [start] to the launch's one {!L2} and a fresh counter
    record, runs the resulting per-block function on every sampled
    block ({!sample_indices}), scales the counters to the whole grid and
    returns them in the report.  Both runners therefore validate, sample
    and extrapolate with the identical code and float operations. *)

val run :
  ?device:Device.t ->
  ?smem_dtype:Mem.dtype ->
  ?sample_blocks:int ->
  grid:int * int ->
  block:int * int ->
  smem_words:int ->
  (ctx -> unit) ->
  report
(** [run ~grid:(gx, gy) ~block:(bx, by) ~smem_words f] executes [f] for
    every thread of every (sampled) block and returns the scaled cost
    report.  [smem_dtype] (default [F32]) is the element type behind
    {!sload}/{!sstore} indices: bank conflicts are computed on byte
    addresses ([index * element bytes]), so sub-word dtypes (F16/F8) pack
    several elements into one [Device.smem_bank_bytes] bank word.  Each
    launch counts into a fresh record.  Raises [Invalid_argument] for
    out-of-range shared accesses, out-of-bounds buffer accesses, or
    block sizes beyond the device limit — at the moment the offending op
    parks, before it is costed. *)
