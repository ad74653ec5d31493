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
    can differ from [Cost.ops (Sym.apply g)].  A one-entry tail memo
    keyed on the physical identity of the chain tail holds the tail's
    F₂ map and op sum, so a candidate [o :: rest] whose [rest] is
    physically the previous candidate's tail prints and looks up only
    [o]; every member of a swizzle grid over one base tiling pays for
    one stage. *)

(** {2 A score in two steps}

    The memory part of a score (every field but [ops]) depends on an
    F₂-linear candidate only through its values at the slot's distinct
    indices, which its F₂ map fixes.  A score therefore splits into a
    per-candidate {!step} (the op count, plus the map or, for a
    candidate with no F₂ form, the whole score) and a per-map
    {!memory} evaluation.  Equal maps are equal functions, so a caller
    that evaluates each distinct map once and pairs the result with
    every candidate's own op count gets exactly {!score}; the tuner's
    static pass does that with one table per search. *)

type prep
(** A phase list prepared on a device for one logical shape: its
    distinct flat indices, its shared phases as positions into them,
    and the constant global transaction total. *)

val prepare :
  ?device:Lego_gpusim.Device.t ->
  dims:Lego_layout.Shape.t ->
  phase list ->
  prep
(** Prepares [phases] on [device] (default A100) for candidates whose
    logical dims are [dims]. *)

val indices : prep -> int array
(** The distinct flat logical indices the shared phases touch, in
    first-touch order: the points a map is evaluated at. *)

type step =
  | Map of { ops : int; map : Lego_f2.Linear.t }
      (** An F₂-linear candidate: its op count and its map
          ([Lego_f2.Linear.of_stage o] after the chain tail's map).  Its
          score is [{ (memory prep map) with ops }]. *)
  | Scored of score
      (** A candidate with no F₂ form, scored in full through its
          compiled chain ({!Compiled.compile}). *)

val step : prep -> ?ops:int -> Lego_layout.Group_by.t -> step
(** The per-candidate step.  The op count is {!decomposed_ops} unless
    [ops] gives one.  Raises [Invalid_argument] when the layout's dims
    are not the preparation's. *)

val memory : prep -> Lego_f2.Linear.t -> score
(** The per-map step: the memory part of every candidate whose map is
    [map], with [ops = 0].  The map's values at {!indices} are read off
    its bit-matrix ({!Lego_f2.Linear.apply_into}: two half tables of
    column XORs), then gathered per phase and counted with the
    simulator's {!Lego_gpusim.Access} arithmetic. *)

val score :
  ?device:Lego_gpusim.Device.t ->
  ?memoize:bool ->
  ?ops:int ->
  Lego_layout.Group_by.t ->
  phase list ->
  score
(** Scores one candidate on [device] (default A100): {!step}, then
    {!memory} of the map; no memory part is kept between calls.  The
    preparation of [phases] is kept in a one-entry domain-local cache
    keyed on the phase list's physical identity, the device and the
    dims.  The test suite keeps two differential references for this
    scorer: the structural interpreter and, on F₂-linear candidates, a
    closed-form rank oracle; both must agree with it exactly.
    [memoize] is accepted and ignored. *)

val compare_ranked : score * string -> score * string -> int
(** Lexicographic [(smem_cycles, gmem_txns, ops, fingerprint)] — a total
    order (the fingerprint tie-break makes ranking independent of
    traversal and scheduling order). *)

val pp : Format.formatter -> score -> unit
