(** Static cost pre-filter: analytic bank-conflict / coalescing
    prediction computed directly from a candidate layout, plus the
    symbolic operation count of its index expression.  No simulation —
    this is the cheap first stage that prunes the space before
    {!Slot.t.simulate} runs the survivors.

    Soundness of the pruning (DESIGN.md section 10): the bank and
    transaction arithmetic here is the {e same} arithmetic
    [Simt.cost_shared] / [Simt.cost_global] applies per warp round, so a
    phase list that faithfully samples the kernel's warp access patterns
    predicts the simulator's conflict degree exactly for those rounds;
    the prediction can only diverge from stage two on access patterns the
    phases do not sample. *)

type phase =
  | Shared of { elem_bytes : int; lanes : int -> int list option }
      (** One warp-wide shared access: [lanes t] is the {e logical} index
          lane [t] touches through the candidate layout ([None] =
          inactive lane). *)
  | Global of { elem_bytes : int; addrs : int -> int option }
      (** One warp-wide global access: [addrs t] is lane [t]'s physical
          element offset (already resolved — global patterns of the
          current slots do not route through the candidate). *)

type score = {
  smem_phases : int;  (** Shared phases with at least one active lane. *)
  smem_accesses : int;  (** Total active lanes across shared phases. *)
  smem_cycles : int;  (** Summed bank-conflict degree (1 = no conflict). *)
  gmem_txns : int;  (** Summed coalescing transaction count. *)
  ops : int;  (** Symbolic op count ({!decomposed_ops} by default). *)
}

val conflict_free : score -> bool
(** Every sampled shared phase ran at degree 1. *)

val bank_cycles : Lego_gpusim.Device.t -> elem_bytes:int -> int list -> int
(** {!Lego_gpusim.Access.bank_cycles} — re-exported so callers (and the
    Predict-vs-Simt differential tests) see one name for the arithmetic
    both stages share. *)

val txn_count : Lego_gpusim.Device.t -> elem_bytes:int -> int list -> int
(** {!Lego_gpusim.Access.txn_count}, likewise. *)

val decomposed_ops : Lego_layout.Group_by.t -> int
(** The static pass's op count: the sum, over the candidate's chain, of
    each stage's {!Lego_symbolic.Cost.ops} in isolation (default
    {!Lego_symbolic.Cost.weights}), memoized per domain by the stage's
    printed form; the exact whole-layout count when the chain is empty.
    It drops the cross-stage glue the whole-layout count adds, so it
    can differ from [Cost.ops (Sym.apply g)].  The chain tail's sum is
    kept in {!score}'s one-entry tail memo, so a candidate [o :: rest]
    whose [rest] is physically the previous candidate's tail prints and
    looks up only [o]; every member of a swizzle grid over one base
    tiling pays for one stage. *)

val score :
  ?device:Lego_gpusim.Device.t ->
  ?memoize:bool ->
  ?ops:int ->
  Lego_layout.Group_by.t ->
  phase list ->
  score
(** Scores one candidate on [device] (default A100).  Addresses are
    evaluated in stages: a candidate [o :: rest] maps the value vector
    of [rest] over the slot's distinct indices through [o]'s
    {!Compiled.stage}.  A one-entry domain-local memo keyed on the
    physical identity of [rest] holds the tail's F₂ map, its op-count
    sum and (built on first need) that vector, so the members of a
    swizzle grid, which share their base's chain, compile, print and
    evaluate only their outer stage.

    The memory part of the score (every field but [ops]) is memoized
    by the candidate's F₂ map: [Lego_f2.Linear.of_stage o] composed
    with the tail's map, keyed together with [warp_size], [smem_banks],
    [smem_bank_bytes] and [global_txn_bytes].  The table is
    domain-local and belongs to the phase precomputation, so it lives
    and dies with it.  Equal maps are equal functions, so a hit is
    exactly what an evaluation would give; candidates with no F₂ form
    evaluate every time.  No memo ever decides a value, only whether
    it is recomputed.  The test suite keeps two differential
    references for this scorer: the structural interpreter and, on
    F₂-linear candidates, a closed-form rank oracle; both must agree
    with it exactly.

    The op count is {!decomposed_ops} unless [ops] gives one; it is
    per text and never taken from the F₂ memo.  [memoize] is accepted
    and ignored. *)

val compare_ranked : score * string -> score * string -> int
(** Lexicographic [(smem_cycles, gmem_txns, ops, fingerprint)] — a total
    order (the fingerprint tie-break makes ranking independent of
    traversal and scheduling order). *)

val pp : Format.formatter -> score -> unit
