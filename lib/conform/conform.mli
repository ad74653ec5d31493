(** Differential conformance across the four executable layout semantics.

    For each layout, the harness evaluates every point (exhaustively when
    the space is small, seeded random samples otherwise), in blocks of at
    most 256 points with one [int] column per dimension, through:

    - the reference integer interpreter: the generic
      {!Lego_layout.Group_by.apply} / [inv] run once per block in a lane
      domain whose every operation is {!Lego_layout.Domain.Int}'s,
      applied lane by lane;
    - the simplified symbolic expressions
      ({!Lego_symbolic.Sym.apply} / [inv] under the layout's range
      environment), evaluated with floor semantics by one
      {!Lego_symbolic.Expr.evaluator} call per block;
    - the C backend's emitted text, re-parsed by {!Cexpr} and evaluated
      with C's truncating division (skipped — and counted — when
      {!Lego_codegen.C_printer.guard_nonneg} cannot certify the
      expressions, since the backend would refuse to emit them);
    - the MLIR backend's emitted functions, parsed to slot form by
      {!Lego_mlirsim.Mparser} and run over each block by
      {!Lego_mlirsim.Minterp.prepare};
    - the affine F₂ form ({!Lego_f2.Linear.of_layout}) and its matrix
      inverse, when the layout is in the bit-linear family (checked —
      and counted — only there; a singular matrix on one of these
      always-bijective layouts is reported as a mismatch in its own
      right).

    The C and F₂ legs run point by point.  Every leg gives each point
    its value or the exception it raises there; one pass then walks the
    points in order.  All semantics must agree, the forward map must be
    bijective, and [inv] must invert [apply].  Any disagreement is
    minimized with {!Shrink} and reported with a copy-pasteable
    reproduction. *)

type mismatch = {
  stage : string;
      (** Which check failed, e.g. ["symbolic-apply"], ["c-inv"],
          ["interp-roundtrip"], ["exception"]. *)
  detail : string;  (** Human-readable point / expected / got. *)
}

type outcome = {
  points : int;  (** Points actually evaluated. *)
  c_checked : bool;
      (** False when the non-negativity guard refused the C path. *)
  f2_checked : bool;
      (** True when the layout compiled to an affine F₂ form and the
          ["f2-apply"] / ["f2-inv"] legs ran at every point. *)
  mismatch : mismatch option;  (** First disagreement found, if any. *)
}

val check_layout :
  ?max_points:int -> ?sample_seed:int -> Lego_layout.Group_by.t -> outcome
(** Cross-check one layout.  Exhaustive (with a bijectivity check) when
    [numel <= max_points] (default 2048): point [k] is flat index [k];
    otherwise [max_points] seeded samples, deterministic in
    [sample_seed].  The first failing check is reported in per-point
    order: at each point, [interp-bounds], [interp-injective],
    [interp-roundtrip], [symbolic-apply], [symbolic-inv] per component,
    [c-apply], [c-inv], [mlir-apply], [mlir-inv], [f2-apply], [f2-inv].
    An exception raised at a point is reported there, at its leg's
    place, as stage ["exception"], and [points] counts the points up to
    and including the failing one.  Raises [Invalid_argument] when
    [max_points < 1]. *)

val random_sample_seed : seed:int -> index:int -> int
(** The point-sampling seed {!run} uses for random layout [index] of
    stream [seed] — a pure function of [(seed, index)], matching what a
    [CONFORM_SEED=seed CONFORM_ITERS=index+1] reproduction samples. *)

type failure = {
  origin : string;  (** ["gallery: <name>"] or ["random layout #k"]. *)
  repro : string option;  (** Command line reproducing the failure. *)
  layout : Lego_layout.Group_by.t;  (** Original failing layout. *)
  shrunk : Lego_layout.Group_by.t;  (** Minimized failing layout. *)
  mismatch : mismatch;  (** Disagreement on the {e shrunk} layout. *)
}

type report = {
  layouts : int;
  points : int;
  c_skipped : int;  (** Layouts whose C path the guard refused. *)
  f2_covered : int;  (** Layouts the F₂ leg covered. *)
  failures : failure list;
  seconds : float;
  budget_exhausted : bool;
      (** True when the time budget cut random generation short. *)
}

val run :
  ?gallery:bool ->
  ?random:int ->
  ?algebra:int ->
  ?seed:int ->
  ?max_points:int ->
  ?budget_s:float ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  unit ->
  report
(** [run ()] checks the {!Corpus} gallery (unless [gallery:false]), then
    [random] (default 200) generated layouts from [seed] (default 42),
    then [algebra] (default 0) layout-algebra terms
    ({!Lgen.algebra_layout_of_seed}) from the same seed, stopping
    early — with [budget_exhausted] set — once [budget_s] seconds
    (default unlimited) have elapsed.  The budget is checked before
    {e every} layout, gallery included.  [progress] receives a line per
    detected failure before shrinking starts.

    [jobs] (default 1) fans layouts out across that many domains of a
    {!Lego_exec.Exec} pool.  Each layout is generated, checked, and
    shrunk entirely within one domain, seeded purely by its identity
    (a gallery name, or a stream seed and index), and results are
    merged in submission order — so the report (counts, failures, their
    order, shrunk layouts, repro lines) is bit-identical for any [jobs].
    Only [seconds], and which layouts a too-small [budget_s] cuts, can
    vary.  [progress] may be called from any domain, concurrently. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit
(** Summary plus every failure; one line per count when clean. *)
