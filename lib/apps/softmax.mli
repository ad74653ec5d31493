(** Row-wise softmax (figure 12d of the paper).

    The LEGO/Triton implementation is a single fused kernel — each row is
    loaded once, reduced, exponentiated and written once.  The PyTorch
    eager baseline executes one kernel per algebraic step, re-reading the
    operand from global memory each time; at large row lengths both
    fused versions beat it by the traffic ratio, which is the effect the
    paper's figure shows.  Launches simulate 4 sampled blocks on an A100;
    the fused kernel runs every block under [compute_values]. *)

type config = {
  rows : int;
  cols : int;
  dtype : Lego_gpusim.Mem.dtype;
  compute_values : bool;
}

val default_config : int -> config
(** [default_config cols] with 4096 rows, FP32, values off. *)

type result = {
  time_s : float;
  gbps : float;  (** effective bandwidth on the useful 2N bytes *)
  reports : Lego_gpusim.Simt.report list;
}

val run_fused : config -> result
(** The LEGO-generated (and, identically, Triton reference) fused kernel:
    one block per row, offsets from a row-major [rows x cols] LEGO view. *)

val run_eager : config -> result
(** PyTorch eager baseline: max, subtract+exp, sum, divide as four
    separate kernel launches. *)

val check_numerics : config -> (unit, string) Stdlib.result
