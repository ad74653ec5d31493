(** Warp-vectorized fast path for convergent kernels.

    A {!program} is a straight-line warp program: every thread executes
    the same op sequence, with per-lane addresses given as functions of
    the thread context and divergence expressed as {e predication}
    ([Masked]) rather than control flow.  For such programs the
    lock-step fiber machinery of {!Simt} is pure overhead — each round's
    per-warp access batch is exactly [{addr ctx | lane in warp, masks
    hold}] — so {!run} evaluates all lanes of a warp in one call and
    costs the batch directly, with no fibers, no memory traffic, and an
    optional per-warp summary cache.  Kernels with genuinely divergent
    control flow (data-dependent loops, per-lane trip counts) stay on
    the effect-handler interpreter.

    {2 Equivalence contract}

    [run p] and [Simt.run (interpret p)] produce {e bit-identical}
    counters: both paths share one implementation of the cost arithmetic
    ({!Access}, [Simt.cost_global], [Simt.record_flops]), drive the
    per-launch {!L2} over the same canonical order (program order,
    warps ascending, segments ascending), and scale sampled grids with
    the same float operations.  All counter increments are
    integer-valued, so sums are exact and grouping cannot introduce
    rounding skew.  The conformance suite checks this differentially
    over the gallery and seeded random layouts.

    {2 Caching contract}

    When [~key] is passed to {!run}, shared-memory summaries and the
    active-lane counts of predicated [Alu]/[Flops] ops are cached per
    [(key, op index, warp)] in domain-local storage, where the key is
    extended with the run's warp width, bank geometry, element size and
    block shape, so runs on different devices never share a summary.
    This is sound only if the program's shared addresses and masks are
    {e block-independent} (functions of [tx]/[ty] alone) and [key]
    uniquely identifies the program's shared-access and predication
    structure (e.g. ["slot:" ^ layout fingerprint]).  Global addresses
    may depend on the block freely — they are never cached because the
    L2 state is launch-wide. *)

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

val run :
  ?device:Device.t ->
  ?smem_dtype:Mem.dtype ->
  ?sample_blocks:int ->
  ?counters:Simt.counters ->
  ?key:string ->
  grid:int * int ->
  block:int * int ->
  smem_words:int ->
  program ->
  Simt.report
(** Vectorized evaluation; same signature, validation, sampling,
    guards, and report as {!Simt.run} (plus [?key], see the caching
    contract above).  Addresses are validated before any cost is
    recorded, and accumulation into [?counters] happens only after the
    launch completes. *)

val clear_cache : unit -> unit
(** Drop this domain's per-warp summary cache (tests / benchmarks). *)
