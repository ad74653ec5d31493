(** Grouped GEMM (figure 12c of the paper).

    Following the Triton repository benchmark the paper uses: a group of
    same-shaped GEMMs is either launched one kernel per GEMM (paying a
    launch and an under-occupied grid each time) or as a single kernel
    whose program ids range over every tile of every member.  The mapping
    [pid -> (gemm, tile_m, tile_n)] of the grouped kernel is itself a LEGO
    grouping ({!pid_layout}). *)

type config = {
  gemms : int;
  base : Matmul.config;  (** shape shared by the group members *)
}

val default_config : int -> config
(** [default_config size] — 8 square GEMMs of that size. *)

val pid_layout : config -> Lego_layout.Group_by.t
(** Logical [(gemm, pid_m, pid_n)] view of the grouped kernel's flat
    program-id space. *)

val run_individual : config -> Matmul.result
(** One launch per GEMM; times add. *)

val run_grouped : config -> Matmul.result
(** Single launch covering the whole group. *)
