(** Kernel slots: the tuner's view of one shared-memory layout decision
    inside one kernel.

    A slot bundles everything the two search stages need: the logical
    shape of the space being laid out (for {!Space}), a list of
    representative warp access phases (for the {!Predict} pre-filter),
    and a full simulation returning the roofline time (the stage-two
    ground truth).  Each slot's kernel is a single
    {!Lego_gpusim.Fastpath.program} — [simulate ~fast:true] runs it on
    the warp-vectorized fast path (the layout compiled once, one table
    of per-warp summaries per simulation), [simulate ~fast:false]
    interprets the {e same}
    program through the {!Lego_gpusim.Simt} effect handler; the two
    produce bit-identical counters, only the wall-clock differs.  The
    three slots below are the paper's three hand-tuned layout decisions
    (figures 13-14). *)

type sim = {
  time_s : float;  (** {!Lego_gpusim.Metrics.sum_times_s} of the run. *)
  s_accesses : float;  (** Summed shared-access lanes. *)
  s_cycles : float;  (** Summed shared bank cycles. *)
  g_txns : float;  (** Summed global memory transactions. *)
}

type t = {
  name : string;
  descr : string;
  rows : int;
  cols : int;  (** Logical shape of the layout under search. *)
  device : Lego_gpusim.Device.t;
      (** The device model the slot's simulations run on — part of the
          slot's cache identity (see {!identity}). *)
  smem_dtype : Lego_gpusim.Mem.dtype;
      (** Shared-memory element type of the slot's kernel, likewise part
          of the identity (bank-conflict structure depends on it). *)
  phases : Predict.phase list;
      (** Representative warp phases for the static pre-filter. *)
  simulate : fast:bool -> Lego_layout.Group_by.t -> sim;
      (** Full simulation of the kernel with the candidate layout;
          [fast] selects the warp-vectorized path or the effect-handler
          reference (bit-identical counters).  {!Tune.search} always
          runs [~fast:true]; [~fast:false] is the reference the tests
          compare it against. *)
  simulate_sampled : (fast:bool -> Lego_layout.Group_by.t -> sim) option;
      (** Cheap sampled simulation for the funnel's middle rung: the
          same kernel on a grid / launch subset chosen so the shared
          conflict structure is fully represented (one block of the
          uniform matmul grid, one transpose tile, nw's widest
          diagonal).  Its absolute numbers are {e not} comparable to
          [simulate]'s — it ranks candidates for promotion, never
          reports.  [None] means the slot has no cheaper granularity
          and the funnel promotes straight to full simulation. *)
  baselines : (string * sim Lazy.t) list;
      (** Named reference layouts (forced at most once). *)
  full_warps : bool;
      (** Every shared round uses a full warp — makes
          {!sim_conflict_free} meaningful. *)
}

val identity : t -> string
(** The slot's cache/store identity: ["name@device/dtype"] (e.g.
    ["matmul@a100/fp16"]).  {!Tune.search} keys its {!Cache} — and the
    compile service keys its persistent store — by this, not the bare
    name, so the same slot tuned under different device presets or
    shared-memory dtypes never cross-contaminates.  Uses the stable
    {!Lego_gpusim.Device.preset_name} when the device is a preset. *)

val sim_conflict_free : ?device:Lego_gpusim.Device.t -> sim -> bool
(** The simulation ran every warp-wide shared round at bank degree 1
    (only meaningful under [full_warps]). *)

val row_major : rows:int -> cols:int -> Lego_layout.Group_by.t
(** The identity layout of the slot's shape — the universal baseline. *)

val matmul_smem : ?device:Lego_gpusim.Device.t -> unit -> t
(** 128 x 32 FP16 matmul staging tile: stored row-wise, consumed
    column-wise; row-major storage is 16-way conflicted, the XOR swizzle
    is the known fix. *)

val transpose_smem : ?device:Lego_gpusim.Device.t -> unit -> t
(** 32 x 32 FP32 transpose tile ({!Lego_apps.Transpose.run_shared}'s
    kernel as a warp program); baselines include the naive
    no-shared-memory kernel. *)

val nw_smem : ?device:Lego_gpusim.Device.t -> unit -> t
(** 17 x 17 FP32 Needleman-Wunsch score buffer ({!Lego_apps.Nw}'s tile
    kernel as a {e predicated} warp program — the shrinking wavefront
    fronts become [Masked] ops, so the warp stays converged); the
    anti-diagonal gallery layout is the paper's fix. *)

val names : string list
(** The slots' names, in {!all}'s order: [matmul], [transpose], [nw]. *)

val all : ?device:Lego_gpusim.Device.t -> unit -> t list

val find : ?device:Lego_gpusim.Device.t -> string -> t option
(** Builds only the named slot; [None] builds nothing. *)
