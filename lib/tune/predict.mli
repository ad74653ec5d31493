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
  ops : int;  (** {!Lego_symbolic.Cost.ops} of the symbolic offset. *)
}

val conflict_free : score -> bool
(** Every sampled shared phase ran at degree 1. *)

val bank_cycles : Lego_gpusim.Device.t -> elem_bytes:int -> int list -> int
(** {!Lego_gpusim.Access.bank_cycles} — re-exported so callers (and the
    Predict-vs-Simt differential tests) see one name for the arithmetic
    both stages share. *)

val txn_count : Lego_gpusim.Device.t -> elem_bytes:int -> int list -> int
(** {!Lego_gpusim.Access.txn_count}, likewise. *)

val stage_ops : Lego_layout.Order_by.t -> int
(** Symbolic op count of one chain stage in isolation (default
    {!Lego_symbolic.Cost.weights}), memoized per domain by the stage's
    printed form ({!Lego_layout.Order_by.to_string}).  The building
    block of {!decomposed_ops}. *)

val decomposed_ops : Lego_layout.Group_by.t -> int
(** Per-dimension decomposition of the op count: the sum of
    {!stage_ops} over the candidate's chain (the exact whole-layout
    count when the chain is empty).  Candidates sharing a tile prefix —
    every member of a swizzle grid over one base tiling, every tiling
    sharing pieces — reuse each stage's cost from the table, so at
    mega-space scale the dominant symbolic evaluation happens once per
    {e stage} instead of once per candidate.  A ranking surrogate: it
    drops the constant cross-stage glue cost (identical across a
    family, so family-internal order is preserved) — feed it to [score
    ?ops] where throughput matters, keep the default exact count
    elsewhere. *)

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
    {!Compiled.stage}, and that vector is kept in a one-entry
    domain-local memo keyed on the physical identity of [rest] (and of
    the phase precomputation), so the members of a swizzle grid, which
    share their base's chain, evaluate the base once.  A memo miss
    recomputes; the score never depends on the hit rate.  The test
    suite keeps two differential references for this scorer: the
    structural interpreter and, on F₂-linear candidates, a closed-form
    rank oracle; both must agree with it exactly.

    [memoize] is accepted and ignored (the scorer keeps no
    per-candidate table).  [ops], when given, replaces the symbolic op
    count (use {!decomposed_ops} for the shared-prefix fast path); the
    bank/transaction arithmetic is unaffected. *)

val compare_ranked : score * string -> score * string -> int
(** Lexicographic [(smem_cycles, gmem_txns, ops, fingerprint)] — a total
    order (the fingerprint tie-break makes ranking independent of
    traversal and scheduling order). *)

val pp : Format.formatter -> score -> unit
