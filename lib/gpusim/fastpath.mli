(** Warp-vectorized fast path for convergent kernels.

    A {!program} is a straight-line warp program: every thread executes
    the same op sequence, with per-lane addresses given as functions of
    the thread context and divergence expressed as {e predication}
    ([Masked]) rather than control flow.  For such programs the
    lock-step fiber machinery of {!Simt} is pure overhead — each round's
    per-warp access batch is exactly [{addr ctx | lane in warp, masks
    hold}] — so {!run} evaluates all lanes of a warp in one call and
    costs the batch directly, with no fibers, no memory traffic, and an
    optional caller-owned table of per-warp summaries.  Kernels with
    genuinely divergent control flow (data-dependent loops, per-lane
    trip counts) stay on the effect-handler interpreter.

    {2 Equivalence contract}

    [run p] and [Simt.run (interpret p)] produce {e bit-identical}
    counters: both paths share one implementation of the cost arithmetic
    ({!Access}, [Simt.cost_global], [Simt.record_flops]) and one launch
    frame ({!Simt.launch}: validation, block sample, per-launch {!L2},
    extrapolation), and drive the L2 over the same canonical order
    (program order, warps ascending, segments ascending).  All counter
    increments are integer-valued, so sums are exact and grouping cannot
    introduce rounding skew.  The conformance suite checks this differentially
    over the gallery and seeded random layouts.

    {2 Summary tables}

    A {!summaries} table passed to {!run} holds, per (op index, warp),
    each shared op's active-lane count and bank cycles and each
    predicated [Alu]/[Flops] op's active-lane count.  Each entry is
    filled on first use and read back by later blocks and later runs.
    The table starts over when a run's op count or geometry (warp
    width, bank count and width, element size, block shape) differs
    from the one it was filled under, so runs on different devices
    never share a summary.  Sharing a table is sound only among runs of
    the {e same} program whose shared addresses and masks are
    {e block-independent} (functions of [tx]/[ty] alone); the caller
    owns that condition.  Global addresses may depend on the block
    freely: they are never summarized, because the L2 state is
    launch-wide.  A run without a table summarizes each block afresh,
    so its masks and shared addresses may depend on the block. *)

type addr = Simt.ctx -> int
type mask = Simt.ctx -> bool

type op =
  | Gload of Mem.buffer * addr
  | Gstore of Mem.buffer * addr
  | Sload of addr
  | Sstore of addr
  | Flops of Mem.dtype * bool * int
  | Alu of int  (** [Alu n] with [n <= 0] occupies no round (dropped). *)
  | Sync
  | Masked of mask * op
      (** Predication: masked-off lanes cost nothing but stay
          converged.  Nesting conjoins masks; [Masked (_, Sync)] is
          rejected. *)

type program = op list

val interpret : program -> Simt.ctx -> unit
(** The effect-handler derivation of a program: a kernel for
    {!Simt.run} in which active lanes perform the op and masked-off
    lanes park a {!Simt.noop} round.  This is the reference semantics
    {!run} is checked against. *)

type summaries
(** A table of per-warp summaries (see above).  Mutable and unlocked:
    a table belongs to one simulation on one domain. *)

val summaries : unit -> summaries
(** An empty table. *)

val run :
  ?device:Device.t ->
  ?smem_dtype:Mem.dtype ->
  ?sample_blocks:int ->
  ?summaries:summaries ->
  grid:int * int ->
  block:int * int ->
  smem_words:int ->
  program ->
  Simt.report
(** Vectorized evaluation in {!Simt.launch}'s frame: the same
    signature, validation, sampling, guards, and report as {!Simt.run},
    plus [?summaries], a table the run reads and fills (see above).
    Addresses are validated before any cost is recorded, with
    {!Simt.run}'s [Invalid_argument] messages. *)
