(** Reusable simulation cache for incremental re-tuning.

    One {!t} passed to successive [Tune.search] calls (the CLI creates
    one per run, the compile service one per daemon) lets later
    searches reuse the sampled- and full-rung simulator results earlier
    ones computed, keyed by (slot {e identity}, fingerprint digest).
    The identity string is {!Slot.identity} — name, device preset and
    shared-memory dtype — so distinct slots never collide, and neither
    does the same slot tuned under different devices or dtypes (sims
    depend on both).  The cache can change only wall-clock, never
    results or the reported counters, which the tuner derives from its
    own per-search tallies.  Static scores are not cached: every
    search recomputes them.

    Concurrency: {!find} is a pure read, safe from inside [Exec.map]
    tasks; everything else mutates and must be called only between
    parallel sections (the tuner's existing memo discipline).  The
    table stops growing at [max_entries] (default 2¹⁸) — {!ensure} then
    returns transient entries — so a warm-started daemon cannot make
    the cache the memory hog the bounded top-K avoided. *)

type entry = {
  mutable sampled : Slot.sim option;
  mutable full : Slot.sim option;
}

type t

val create : ?max_entries:int -> unit -> t
val find : t -> slot:string -> fp_digest:string -> entry option

val ensure : t -> slot:string -> fp_digest:string -> entry
(** The entry for the key, inserting a fresh empty one if absent — or a
    {e transient} fresh one (not inserted) once the table holds
    [max_entries].  Sequential sections only. *)

val iter :
  t -> (slot:string -> fp_digest:string -> entry -> unit) -> unit
(** Visit every entry (unspecified order) — the persistence hook the
    compile service uses to flush freshly simulated results to its
    on-disk store and to warm-start a cache from one.  Sequential
    sections only. *)

val note_hits : t -> int -> unit
val note_misses : t -> int -> unit
val hits : t -> int
val misses : t -> int
val length : t -> int
