(** Needleman–Wunsch (Rodinia), figure 14 of the paper.

    The CUDA implementation keeps a [(b+1) x (b+1)] score buffer in shared
    memory and updates its anti-diagonals in parallel; with the standard
    row-major layout those accesses are stride-[b], i.e. heavily
    bank-conflicted.  The paper replaces the buffer's layout with the
    anti-diagonal order of figure 8 (through an [Arr2D] wrapper whose
    indexing LEGO generates), making wavefront accesses unit-stride and
    gaining 1.4-2.1x.  [run] reproduces both variants on the simulator;
    the kernels also compute the real DP scores so small instances can be
    validated against a sequential reference ({!check_numerics}). *)

type layout_kind = RowMajor | AntiDiagonal

type config = {
  length : int;  (** sequence length; a positive multiple of [b] *)
  b : int;  (** CUDA block edge (Rodinia uses 16) *)
  compute_values : bool;
}

val default_config : int -> config
(** [default_config length]: b = 16 with gap penalty 10, as in Rodinia,
    values off.  Raises [Invalid_argument] naming the field unless
    [length] is a positive multiple of 16. *)

type result = {
  time_s : float;
  cells_per_s : float;  (** DP cell updates per second *)
  reports : Lego_gpusim.Simt.report list;
  scores : Lego_gpusim.Mem.buffer;  (** the [(L+1)^2] DP matrix *)
}

val buff_index : layout_kind -> b:int -> int -> int -> int
(** [buff_index kind ~b] is the shared-buffer offset of logical [(i, j)]
    under the chosen layout (the [Arr2D] operator of the paper,
    LEGO-generated in the anti-diagonal case).  The anti-diagonal piece
    is built once, when [kind] and [b] are applied; apply those once
    and reuse the closure. *)

val run : layout_kind -> config -> result
(** Simulated on an A100, 2 sampled blocks per launch unless
    [compute_values] is set.  The score buffer is indexed through
    {!buff_index}, charged 2 ALU ops per access row-major and 8
    anti-diagonal.  The autotuner's NW slot ([Lego_tune.Slot]) searches
    arbitrary buffer layouts with its own warp program of this kernel.
    Raises [Invalid_argument] naming the field, as {!default_config}
    does. *)

val check_numerics : layout_kind -> config -> (unit, string) Stdlib.result
