(** Deterministic multicore fan-out over an OCaml 5 domain pool.

    The hot loops of this repository — differential conformance, the
    figure sweeps of the benchmark harness, and exhaustive bijectivity
    checking — are embarrassingly parallel: every layout, kernel
    configuration, and index range is independent.  This module gives
    them a shared work-distribution layer with a strict determinism
    contract:

    - {b Submission-order merge.}  [map ~pool xs f] returns exactly
      [Array.map f xs]: result [i] is [f xs.(i)], whatever domain
      computed it and in whatever order tasks were stolen.
    - {b Deterministic exceptions.}  Exceptions are captured per task;
      after every task has either finished or raised, the exception of
      the {e lowest} task index is re-raised (with its backtrace).
      Later tasks still run, so the observable outcome does not depend
      on scheduling.
    - {b Chunked work-stealing.}  Tasks are handed out in contiguous
      index chunks from a shared atomic cursor, so cheap items amortize
      the cursor traffic while expensive items still balance.

    Tasks must be self-contained: any task-visible mutable state has to
    be owned by the task (or be domain-local, as the symbolic engine's
    memo tables are).  A task must not call [map] on the pool that is
    running it — that is detected and rejected.

    The pool spawns [jobs - 1] worker domains; the calling domain is the
    remaining worker, so [jobs = 1] degrades to an inline sequential
    loop with the same semantics (and no domains spawned). *)

type pool

val default_jobs : unit -> int
(** Pool size used when [create] is given no [jobs]:
    [jobs_of_env (Sys.getenv_opt "LEGO_JOBS")]. *)

val jobs_of_env : string option -> int
(** The pool size a [LEGO_JOBS] value names: the value when it is a
    positive integer (surrounding blanks allowed), otherwise — unset,
    empty, garbage or below 1 — [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> ?oversubscribe:bool -> unit -> pool
(** [create ()] makes a pool of [jobs] (default {!default_jobs})
    workers, including the caller.  The number of domains actually
    {e spawned} is clamped to [Domain.recommended_domain_count () - 1]:
    oversubscribing a host strictly loses here, because OCaml 5 minor
    collections are stop-the-world handshakes across all running
    domains, so extra domains add GC synchronization and timeslicing
    without adding parallelism.  The clamp never changes results (the
    determinism contract holds at any domain count) — only wall-clock.
    [~oversubscribe:true] disables the clamp (used by tests exercising
    multi-domain interleavings on small hosts).  Raises
    [Invalid_argument] when [jobs < 1]. *)

val jobs : pool -> int
(** The pool's {e requested} worker count (>= 1), counting the calling
    domain — not reduced by the hardware clamp, so callers can key
    determinism-relevant decisions (none exist today) and reporting on
    the configured [-j]. *)

val shutdown : pool -> unit
(** Join every worker domain.  Idempotent.  The pool must not be used
    afterwards. *)

val with_pool : ?jobs:int -> ?oversubscribe:bool -> (pool -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool, shutting it down on exit
    (normal or exceptional). *)

val map : ?chunk:int -> pool:pool -> 'a array -> ('a -> 'b) -> 'b array
(** [map ~pool xs f] computes [Array.map f xs] across the pool's
    domains under the determinism contract above.  [chunk] (default:
    [length / 8 / jobs] clamped to [1 .. 1024]) is the number of
    consecutive indices a worker claims at a time — the cap keeps
    mega-batches stealing finely enough that one slow chunk cannot
    strand the tail, while tiny batches degrade to chunk 1 (one steal
    per expensive task).  Only the domain that created the pool may
    call [map], and not from inside a task of the same pool (both
    raise [Invalid_argument]). *)
