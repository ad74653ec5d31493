(** Deterministic multicore fan-out over OCaml 5 domains, fork-join.

    The hot loops of this repository — differential conformance, the
    tuner's simulation rungs, and the figure sweeps of the benchmark
    harness — are embarrassingly parallel: every layout, candidate and
    kernel configuration is independent.  This module gives them a
    shared work-distribution layer with a strict determinism
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

    Each [map] spawns its helper domains (up to [jobs - 1]; the calling
    domain is the remaining worker) and joins them before it returns,
    so no domain outlives its map, and a helper's domain-local tables
    (the symbolic engine's memos, for one) start empty on every map.
    [jobs = 1] degrades to an inline sequential loop with the same
    semantics and no domain spawned.

    Tasks must be self-contained: any task-visible mutable state has to
    be owned by the task (or be domain-local, as the symbolic engine's
    memo tables are).  A task must not call [map] on the pool that is
    running it — that is rejected, so fan-outs never multiply past the
    pool's width. *)

type pool

val default_jobs : unit -> int
(** [jobs_of_env (Sys.getenv_opt "LEGO_JOBS")]: [bench/main.exe]'s
    default worker count. *)

val jobs_of_env : string option -> int
(** The pool size a [LEGO_JOBS] value names: the value when it is a
    positive integer (surrounding blanks allowed), otherwise — unset,
    empty, garbage or below 1 — [Domain.recommended_domain_count ()]. *)

val jobs : pool -> int
(** The pool's {e requested} worker count (>= 1), counting the calling
    domain — not reduced by the hardware clamp, so callers can key
    determinism-relevant decisions (none exist today) and reporting on
    the configured [-j]. *)

val with_pool : jobs:int -> ?oversubscribe:bool -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a pool of [jobs] workers,
    including the caller; once [f] returns (or raises), {!map} refuses
    the pool.  The domains a map actually {e spawns} are clamped to [Domain.recommended_domain_count () - 1]:
    oversubscribing a host strictly loses here, because OCaml 5 minor
    collections are stop-the-world handshakes across all running
    domains, so extra domains add GC synchronization and timeslicing
    without adding parallelism.  The clamp never changes results (the
    determinism contract holds at any domain count) — only wall-clock.
    [~oversubscribe:true] disables the clamp (used by tests exercising
    multi-domain interleavings on small hosts).  Raises
    [Invalid_argument] when [jobs < 1]. *)

val map : ?chunk:int -> pool:pool -> 'a array -> ('a -> 'b) -> 'b array
(** [map ~pool xs f] computes [Array.map f xs] under the determinism
    contract above, on the caller and at most one helper domain per
    chunk beyond the first, joined before it returns.  [chunk]
    (default: [length / 8 / jobs] clamped to [1 .. 1024]) is the
    number of consecutive indices a worker claims at a time — the cap
    keeps mega-batches stealing finely enough that one slow chunk
    cannot strand the tail, while tiny batches degrade to chunk 1 (one
    steal per expensive task).  Only the domain that made the pool may
    call [map], not from inside a task of the same pool and not after
    {!with_pool} returned (all raise [Invalid_argument]). *)
