(** The layout autotuner: closes the loop between the layout algebra and
    the simulator's cost model (DESIGN.md sections 10 and 14).

    A staged funnel over the lazy {!Space.stream} of candidates for one
    {!Slot}:

    + {b static pass} — the stream (pre-deduplicated, never
      materialized) flows through the cheap {!Predict} pre-filter in
      chunks scored in parallel, under a candidate budget; only a
      bounded top-K heap of the best survivors plus counters are
      retained, so ranking memory is O(K) at 10⁵–10⁶ candidates;
    + {b sampled rung} (successive halving; active in scale mode when
      the slot has a [simulate_sampled]) — every heap survivor runs the
      cheap sampled simulation, the best [top] promote;
    + {b full rung} — the promoted finalists run the slot's full
      {!Lego_gpusim.Simt} simulation and are ranked by roofline time;
    + the winner is cross-checked through the {!Lego_conform.Conform}
      four-semantics differential harness before being reported.

    Results are bit-identical at any [jobs]: parallelism only ever runs
    inside {!Lego_exec.Exec.map} (submission-order merge), all search
    decisions are sequential over totally ordered keys, the top-K
    retained set is order-independent under its total comparator, and
    the {!Cache} is read (purely) inside parallel sections but written
    only between them — a warm cache changes wall-clock, never results
    or counters. *)

type options = {
  budget : int;  (** Max candidates scored by the static pass (256). *)
  top : int;  (** Finalists fully simulated (default 8). *)
  seed : int;  (** Space-enumeration seed; 0 = canonical order. *)
  jobs : int;  (** {!Lego_exec.Exec} pool size (default 1). *)
  conform : bool;
      (** Four-semantics check of the winner (default on, at
          {!Lego_conform.Conform.check_layout}'s default 2048 points). *)
  composed : bool;
      (** Include the {!Space.composed} roots (default off): candidates
          built by the prover-discharged layout algebra — masked
          swizzles composed with logical divides of the row-major
          space. *)
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

val search : ?options:options -> ?cache:Cache.t -> Slot.t -> result
(** Runs the funnel.  Static scores come from {!Predict.score} on the
    slot's device, with its default {!Predict.decomposed_ops} op count,
    in every mode; sims come from the slot's {!Lego_gpusim.Fastpath}
    kernels ([simulate ~fast:true]).  [cache], when given, persists
    both rungs' sim results across searches in a run — re-tuning the
    same slot (wider budget, different [top], before/after comparisons)
    reuses instead of re-simulating; see {!Cache} for the reuse and
    soundness rules.  Any [top] >= 1 is accepted (the retained heap
    never exceeds [budget]); raises [Invalid_argument] when [budget]
    or [top] is < 1. *)

val conform_ok : result -> bool option
(** [Some true] = checked clean, [Some false] = mismatch found, [None] =
    check disabled. *)

val pp_result : Format.formatter -> result -> unit
