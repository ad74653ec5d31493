(** 2-D matrix transpose (figure 13 of the paper).

    The paper compares MLIR-generated GPU code against the NVIDIA SDK
    CUDA kernels, in shared-memory and non-shared variants; both pairs
    perform equivalently, the interesting gap being naive (uncoalesced
    writes) versus shared-tile (both sides coalesced).  The shared tile's
    bank behaviour is itself a LEGO layout choice: unpadded row-major
    conflicts, an XOR-swizzled layout (from {!Lego_layout.Gallery}) does
    not. *)

type smem_layout = Unpadded | Padded | Swizzled
(** The shared tile's layout.  The autotuner's transpose slot
    ([Lego_tune.Slot]) searches this choice over arbitrary LEGO views
    with its own warp program. *)

type config = {
  m : int;
  n : int;
  tile : int;  (** square tile edge: one of 16, 32, 64, 128, 256 *)
  compute_values : bool;
      (** full-size buffers and every block simulated, for
          {!check_numerics}; otherwise 4 sampled blocks over folded
          buffers *)
}

val default_config : int -> config
(** [default_config size]: a [size x size] transpose in 32-wide tiles,
    values off. *)

type result = {
  time_s : float;
  gbps : float;
  reports : Lego_gpusim.Simt.report list;
}

val run_naive : ?device:Lego_gpusim.Device.t -> config -> result
(** Direct [out[j][i] = in[i][j]] on [device] (default A100): reads
    coalesce, writes do not.
    Raises [Invalid_argument] naming the field when [m] or [n] is not
    positive, or [tile] is not one of 16, 32, 64, 128, 256 dividing
    both (as do {!run_shared} and {!check_numerics}). *)

val run_shared : ?smem_layout:smem_layout -> config -> result
(** Tile staged through shared memory (default [Swizzled]); both global
    accesses coalesce. *)

val check_numerics : ?smem_layout:smem_layout -> config -> (unit, string) Stdlib.result
(** Run {!run_shared}'s kernel under [compute_values] and compare every
    transposed element with its source. *)
