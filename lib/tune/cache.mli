(** Reusable simulation cache for repeated searches in one process.

    One {!t} passed to successive [Tune.search] calls lets later
    searches reuse the sampled- and full-rung simulator results earlier
    ones computed, keyed by (slot {e identity}, fingerprint digest).
    The compile service makes one per daemon and perfbench one per
    unit; [legoc tune] makes none (it hit only when a slot name
    repeated on the command line).  The identity is {!Slot.identity} —
    name, device preset and shared-memory dtype — so distinct slots
    never collide, and neither does one slot under different devices
    or dtypes (sims depend on both).  The cache can change only
    wall-clock, never results or the reported counters, which the tuner
    derives from its own per-search tallies.  Static scores are not
    cached.  Nothing persists a cache: it dies with the process that
    filled it, and it has no size bound beyond the candidate spaces its
    searches reach.

    Concurrency: {!find} is a pure read, safe from inside [Exec.map]
    tasks; everything else mutates and must be called only between
    parallel sections (the tuner's existing memo discipline). *)

type entry = {
  mutable sampled : Slot.sim option;
  mutable full : Slot.sim option;
}

type t

val create : unit -> t
val find : t -> slot:string -> fp_digest:string -> entry option

val ensure : t -> slot:string -> fp_digest:string -> entry
(** The entry for the key, inserting a fresh empty one if absent.
    Sequential sections only. *)

val iter :
  t -> (slot:string -> fp_digest:string -> entry -> unit) -> unit
(** Visit every entry (unspecified order).  A test accessor: the tune
    tests read a search's sampled sims through it.  Sequential sections
    only. *)

val note_hits : t -> int -> unit
val note_misses : t -> int -> unit
val hits : t -> int
val misses : t -> int
val length : t -> int
