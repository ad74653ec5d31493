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

val stage_ops : Lego_layout.Order_by.t -> int
(** One chain stage's op count in isolation: {!Lego_symbolic.Cost.ops}
    of the stage alone over its element count, memoized per domain by
    the stage's printed form. *)

val decomposed_ops : Lego_layout.Group_by.t -> int
(** The static pass's op count: the sum of {!stage_ops} over the
    candidate's chain; the exact whole-layout count when the chain is
    empty.  It drops the cross-stage glue the whole-layout count adds,
    so it can differ from [Cost.ops (Sym.apply g)]. *)

(** {2 A score in two parts}

    The memory part of a score (every field but [ops]) depends on an
    F₂-linear candidate only through its values at the phases' indices,
    which its F₂ map fixes.  A caller that evaluates each distinct map
    once ({!memory}) and pairs the result with every candidate's own op
    count gets exactly {!score}; the tuner's static pass does that with
    one table per search.  A candidate with no F₂ form is evaluated
    through its compiled closure ({!direct}).

    A map is evaluated per {e translation class} of phases, not per
    phase.  Two shared phases are translates when they have the same
    element width and the same lane-offset vector (each lane's flat
    logical index xor the first lane's).  When the element width, the
    bank width and the bank count are powers of two, translates cost
    every affine map the same cycles (DESIGN.md section 12 gives the
    argument); under any other geometry each phase is its own class. *)

type prep
(** A phase list prepared on a device for one logical shape: its shared
    phases grouped into translation classes, each as positions into the
    distinct flat indices its representative touches; the same phases
    one class each over every distinct index, for candidates with no F₂
    form; and the constant global transaction total. *)

val prepare :
  ?device:Lego_gpusim.Device.t ->
  dims:Lego_layout.Shape.t ->
  phase list ->
  prep
(** Prepares [phases] on [device] (default A100) for candidates whose
    logical dims are [dims].  A class's first phase, in list order,
    represents it. *)

val indices : prep -> int array
(** The distinct flat logical indices the translation classes'
    representatives touch, in first-touch order: the points a map is
    evaluated at.  On the matmul and transpose slots that is a row
    sweep and a column sweep, 63 points, where the 64 phases touch
    1 024. *)

val classes : prep -> int
(** The number of translation classes: the bank counts {!memory} makes
    per map (2 of the matmul and transpose slots' 64 shared phases, 5 of
    nw's 8). *)

val memory : prep -> Lego_f2.Linear.t -> score
(** The memory part of every candidate whose F₂ map is [map], with
    [ops = 0].  The map's values at {!indices} are read off its
    bit-matrix ({!Lego_f2.Linear.apply}), then each translation class's
    representative is gathered and counted with the simulator's
    {!Lego_gpusim.Access} arithmetic and weighted by the phases in its
    class. *)

val direct : prep -> Compiled.t -> score
(** The memory part of a candidate with no F₂ form, with [ops = 0]:
    the same gather-and-count loop over its compiled closure, with one
    class per phase over every index the phases touch.  Raises
    [Invalid_argument] when the closure's dims are not the
    preparation's. *)

val score :
  ?device:Lego_gpusim.Device.t ->
  ?memoize:bool ->
  ?ops:int ->
  Lego_layout.Group_by.t ->
  phase list ->
  score
(** Scores one candidate on [device] (default A100): {!memory} of its
    F₂ map ({!Lego_f2.Linear.of_layout}), or {!direct} of its compiled
    closure when it has none, with [ops] (default {!decomposed_ops}).
    No memory part is kept between calls.  The preparation of [phases]
    is kept in a one-entry domain-local cache keyed on the phase list's
    physical identity, the device and the dims.  The test suite keeps
    two differential references for this scorer: the structural
    interpreter and, on F₂-linear candidates, a closed-form rank
    oracle; both must agree with it exactly.  [memoize] is accepted and
    ignored. *)

val compare_score : score -> score -> int
(** Lexicographic [(smem_cycles, gmem_txns, ops)]: the ranking before
    any tie-break. *)

val compare_ranked : score * string -> score * string -> int
(** {!compare_score}, then the fingerprint — a total order (the
    fingerprint tie-break makes ranking independent of traversal and
    scheduling order). *)

val pp : Format.formatter -> score -> unit
