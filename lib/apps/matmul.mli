(** Tiled matrix multiplication, layout-independently expressed (section 5
    of the paper).

    The kernel template is fixed; the computation layout (Triton's grouped
    program-id ordering) and the data layouts of A, B and C are LEGO
    layouts supplied separately, so the four transpose variants of
    figures 12a/12b differ {e only} in the [Row]/[Col] pieces handed to
    the template — the paper's headline usability claim.

    Runs simulate an A100 at tensor-core rates, over 2 sampled blocks
    unless [compute_values] is set. *)

type variant = NN | NT | TN | TT
(** Whether A and B are row-major (N) or column-major (T): [NT] computes
    A * B with B stored transposed, etc. *)

val variant_name : variant -> string
val variants : variant list

type config = {
  m : int;
  n : int;
  k : int;
  bm : int;  (** tile size in M *)
  bn : int;
  bk : int;
  gm : int;  (** program-id group size (Triton's GROUP_SIZE_M) *)
  dtype : Lego_gpusim.Mem.dtype;
  compute_values : bool;
      (** run the real arithmetic (numerics checks; keep sizes small) *)
}

val default_config : ?dtype:Lego_gpusim.Mem.dtype -> int -> config
(** Square problem of the given size with the paper's tile setup
    (128x128x32 tiles, GM=8, values off), in F16 unless [dtype] says
    otherwise. *)

type layouts = {
  cl : Lego_layout.Group_by.t;  (** program-id (computation) layout *)
  dla : Lego_layout.Group_by.t;  (** A: [m/bm, k/bk, bm, bk] tiled view *)
  dlb : Lego_layout.Group_by.t;
  dlc : Lego_layout.Group_by.t;
}

val layouts : config -> variant -> layouts
(** Raises [Invalid_argument] with a [Matmul: ...] message when the
    configuration is degenerate: a non-positive problem or tile extent
    (negative multiples satisfy OCaml's [mod], so they are rejected
    explicitly), a problem extent not divisible by its tile, or a tile
    below the kernel's 16x16 thread footprint.  The [run_*] entry points
    validate through this same check before touching any buffer. *)

val index_cost : config -> variant -> int
(** Weighted operation count of the (simplified) generated index
    expressions per A/B/C address — the cost the kernel charges as index
    arithmetic. *)

val fill_input :
  Lego_layout.Group_by.t -> (int -> int -> float) -> rows:int -> cols:int ->
  Lego_gpusim.Mem.dtype -> Lego_gpusim.Mem.buffer
(** Materialize logical element [(i, j) -> f i j] into a buffer laid out
    physically by the given LEGO layout. *)

type result = {
  time_s : float;
  gflops : float;
  reports : Lego_gpusim.Simt.report list;
}

val run_lego : config -> variant -> result
(** The LEGO-generated kernel. *)

val run_triton_ref : config -> variant -> result
(** The hand-written Triton reference (figure 1): same tiling, pointer
    arithmetic modeled after the reference kernel's incremental updates. *)

val run_cublas : config -> variant -> result
(** Library baseline: autotunes the tile configuration per problem size
    from a small palette, as cuBLAS heuristics do. *)

val check_numerics : config -> variant -> (unit, string) Stdlib.result
(** Run with real values against a CPU reference ([compute_values] is
    forced on; use small sizes). *)
