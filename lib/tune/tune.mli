(** The layout autotuner: closes the loop between the layout algebra and
    the simulator's cost model (DESIGN.md sections 10 and 14).

    A staged funnel over the lazy {!Space.candidates} of one {!Slot}:

    + {b static pass} ({!Static}) — the stream of (swizzle stage, base)
      pairs (pre-deduplicated, never materialized) flows through the
      cheap {!Predict} pre-filter on the calling domain, under a
      candidate budget: each candidate's op count and F₂ map from
      per-search part tables, and one memory evaluation per distinct
      map per search; only a bounded top-K heap of the best survivors,
      the tables and counters are retained, so ranking memory is O(K)
      at 10⁵–10⁶ candidates, and only the survivors' layouts and texts
      are built;
    + {b sampled rung} (successive halving; active in scale mode when
      the slot has a [simulate_sampled]) — every heap survivor runs the
      cheap sampled simulation, the best [top] promote;
    + {b full rung} — the promoted finalists run the slot's full
      {!Lego_gpusim.Simt} simulation and are ranked by roofline time;
    + the winner is cross-checked on every point through the
      {!Lego_conform.Conform} differential harness before being
      reported.

    Results are bit-identical at any [jobs]: the static pass is
    sequential, the only parallel step is the sim rungs'
    {!Lego_exec.Exec.map} (submission-order merge), all search decisions
    are sequential over totally ordered keys, the top-K retained set is
    order-independent under its total comparator, and the {!Cache} is
    read (purely) inside the rungs' parallel sections but written only
    between them — a warm cache changes wall-clock, never results or
    counters. *)

type options = {
  budget : int;  (** Max candidates scored by the static pass (256). *)
  top : int;  (** Finalists fully simulated (default 8). *)
  seed : int;  (** Space-enumeration seed; 0 = canonical order. *)
  jobs : int;
      (** {!Lego_exec.Exec} pool size for the sampled and full sim rungs
          (default 1); the static pass runs on the calling domain at
          any [jobs]. *)
  conform : bool;
      (** Conformance check of the winner (default on): every point of
          its space through {!Lego_conform.Conform.check_layout}, with
          the bijectivity check. *)
  composed : bool;
      (** Include the {!Space.composed} roots (default off): candidates
          built by the layout algebra — masked swizzles composed with
          logical divides of the row-major space. *)
  scale : bool;
      (** Mega-space mode (default off): the {!Space} crosses its scale
          product axes (three-level tilings x vectorization widths x
          the full masked-swizzle grid — ~1.8 x 10⁵ candidates on the
          matmul shape) and the sampled rung turns on at [4 * top]
          wide.  The static pass is the same as in every other mode.
          Raise [budget] accordingly ([legoc tune --scale] uses
          250000). *)
}

val default_options : options

type scored = {
  layout : Lego_layout.Group_by.t;
  fingerprint : string;
  static_score : Predict.score;
  sim : Slot.sim option;  (** Present for full-rung finalists. *)
}

type result = {
  slot : Slot.t;
  winner : scored;  (** Best simulated time (fingerprint tie-break). *)
  ranking : scored list;  (** All fully simulated finalists, best first. *)
  explored : int;  (** Candidates statically scored. *)
  maps : int;
      (** Distinct F₂ maps among the explored candidates: the number of
          memory evaluations the static pass made for them.  Candidates
          with no F₂ form are not counted. *)
  space_size : int;
      (** Size of the full candidate space.  Free when the stream
          drained (it equals [explored]); computed by one extra
          {!Space.count} traversal, outside the timed sections, when
          the budget truncated the stream. *)
  exhaustive : bool;  (** The stream drained within the budget. *)
  sampled_scored : int;
      (** Candidates the sampled rung simulated (0 when the rung is
          inactive). *)
  static_seconds : float;
  sim_seconds : float;
  candidates_per_s : float;  (** [explored / (static + sim)] wall time. *)
  conform : Lego_conform.Conform.outcome option;
  baselines : (string * Slot.sim) list;  (** The slot's references. *)
}

(** The static pass of one search: one entry per candidate part (each
    swizzle stage and each base of {!Space.candidates}) and one map ->
    memory table, living as long as the search.  {!search} feeds it
    every candidate of one traversal of the stream and never shares it
    across searches; candidates of two traversals must not meet in one
    pass, since part ids repeat across traversals. *)
module Static : sig
  type t

  val create : Slot.t -> t
  (** Empty tables for the slot's phases on the slot's device. *)

  val score : t -> Space.candidate -> Predict.score
  (** Scores one candidate on the calling domain: its op count and F₂
      map from its parts' entries (filling an entry the first time its
      part appears), and its memory part from the map table, or from
      {!Predict.memory} the first time its map appears; a candidate
      with no F₂ map is scored by {!Predict.direct} of its compiled
      chain.  Equals
      [Predict.score ~device:slot.device (Space.layout c) slot.phases].
      No candidate's layout or text is built.  Raises
      [Invalid_argument] when a candidate's dims are not the slot's. *)

  val map : t -> Space.candidate -> Lego_f2.Linear.t option
  (** The candidate's F₂ map as {!score} computes it: its stage's map
      after its base's ({!Lego_f2.Linear.of_layout} of its layout). *)

  val maps : t -> int
  (** Distinct F₂ maps scored so far (the table's size). *)

  val evaluations : t -> int
  (** Memory evaluations made so far: one per distinct map, plus one
      per candidate with no F₂ form. *)

  val stages : t -> int
  (** Swizzle stages met so far: the op counts and stage maps made. *)

  val bases : t -> int
  (** Bases met so far: the op counts and base maps made. *)
end

val search : ?options:options -> ?cache:Cache.t -> Slot.t -> result
(** Runs the funnel.  Static scores come from {!Static.score}, which
    equals {!Predict.score} on the slot's device with its default
    {!Predict.decomposed_ops} op count, in every mode, and evaluates
    each distinct F₂ map once per search; sims come from the slot's
    {!Lego_gpusim.Fastpath} kernels ([simulate ~fast:true]).  [cache],
    when given, keeps both rungs' sim results for later searches in the
    same process — a re-tune of the same slot (another budget or [top])
    reads them instead of re-simulating; without one the rungs make no
    lookups.  See {!Cache} for the reuse and soundness rules.  Any
    [top] >= 1 is accepted (the retained heap never exceeds [budget]);
    raises [Invalid_argument] when [budget] or [top] is < 1. *)

val conform_ok : result -> bool option
(** [Some true] = checked clean, [Some false] = mismatch found, [None] =
    check disabled. *)

val conflict_free : result -> bool
(** The winner is predicted conflict-free and, on a slot whose shared
    rounds all use full warps, its full simulation ran conflict-free
    too.  [legoc tune --expect-conflict-free] and the compile service's
    [conflict_free] field both report this. *)

val pp_result : Format.formatter -> result -> unit
