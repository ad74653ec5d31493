(** Side-condition prover (the paper's Z3 role).

    Each Table-1 rewrite fires only when its side condition — a
    non-negativity, upper-bound or non-zero check — holds.  The paper
    discharges these with Z3 over the index ranges derived from the layout
    specification; here a sound-but-incomplete decision procedure combines
    the interval domain of {!Range} with the cancellation performed by
    {!Expr}'s normal form (differences of syntactically equal terms vanish
    before the interval query).  Failing to prove a true fact is safe: the
    rewrite simply does not fire. *)

type stats = {
  mutable queries : int;  (** all goals asked, cached or not *)
  mutable proved : int;  (** goals that held (failed = queries - proved) *)
}

val stats : unit -> stats
val global_stats : unit -> stats
(** The calling domain's live counter record, reported by the Table-1
    benchmark.  Counters (and the verdict memo, a {!Memo} instance) are
    domain-local: each execution-layer domain proves and counts its own
    goals. *)

val snapshot : unit -> stats
(** Copy of [global_stats ()], for per-experiment deltas. *)

val reset : unit -> unit
(** Zero the calling domain's counters and its verdict memo's
    {!Memo.stats} (the verdicts are kept: they stay valid). *)

val diff : stats -> stats -> stats
(** [diff after before] — field-wise difference of two snapshots. *)

val nonneg : Range.env -> Expr.t -> bool
(** [nonneg env e]: is [0 <= e] valid under [env]? *)

val positive : Range.env -> Expr.t -> bool
val nonzero : Range.env -> Expr.t -> bool

val le : Range.env -> Expr.t -> Expr.t -> bool
(** [le env a b]: is [a <= b] valid?  Decided as [nonneg (b - a)] so that
    common terms cancel.  When one side is a constant [c] and [|c| + 1]
    plus the magnitudes [max (|lo|, |hi|)] of the other side's summands
    stays below {!Range.pinf}, the difference is not built: the other
    side's interval decides ([hi(a) <= c], or [c <= lo(b)]), with the
    verdict the difference would give. *)

val lt : Range.env -> Expr.t -> Expr.t -> bool
(** [lt env a b]: is [a < b] valid?  Decided as [nonneg (b - (a + 1))],
    or against a constant from the other side's interval, as {!le}. *)

val in_half_open : Range.env -> Expr.t -> Expr.t -> bool
(** [in_half_open env x a]: is [0 <= x < a] valid — the guard shared by
    rules 3, 4 and 5 of Table 1? *)
