(** The five integer division/modulo rewrite rules of the paper's Table 1,
    plus supporting structural rules, with side conditions discharged by
    {!Prover} over layout-derived ranges.

    | # | pattern                  | result    | condition      |
    |---|--------------------------|-----------|----------------|
    | 1 | [(d*q + r) mod d]        | [r mod d] | [d <> 0]       |
    | 2 | [a*(x/a) + x mod a]      | [x]       | [a <> 0]       |
    | 3 | [x / a]                  | [0]       | [0 <= x < a]   |
    | 4 | [x mod a]                | [x]       | [0 <= x < a]   |
    | 5 | [(d*q + r) / d]          | [q]       | [0 <= r < d]   |

    Rules 1 and 5 match constant [d] by splitting a sum into the terms
    whose coefficient [d] divides and the remainder.  When rule 5's bound
    on the remainder cannot be proved, the weaker—but unconditionally
    sound for [d > 0]—split [(d*q + r)/d -> q + r/d] is applied instead
    (counted under [extra]). *)

type stats = {
  mutable r1 : int;
  mutable r2 : int;
  mutable r3 : int;
  mutable r4 : int;
  mutable r5 : int;
  mutable extra : int;
  mutable passes : int;  (** rewrite passes consumed (fuel spent) *)
  mutable fuel_exhausted : int;
      (** simplifications that ran out of fuel while still making
          progress (the result is sound but may not be a fixpoint) *)
}

val stats : unit -> stats

val total : stats -> int
(** Total rule applications ([passes]/[fuel_exhausted] excluded). *)

val pp_stats : Format.formatter -> stats -> unit

val simplify : ?stats:stats -> ?fuel:int -> env:Range.env -> Expr.t -> Expr.t
(** Iterate one bottom-up pass, applying every rule at every node, to a
    fixpoint, bounded by [fuel] (default 64) passes; exhaustion is
    observable via [stats.fuel_exhausted].

    When no [stats] record is passed, per-pass rewrites and full fixpoint
    results are memoized per environment in two {!Memo} instances keyed
    by node id (physical env identity, like the {!Range} cache); passing [stats]
    bypasses them so the reported rule counts stay exact. *)

type cache_stats = Memo.stats = { hits : int; misses : int; evictions : int }

val cache_stats : unit -> cache_stats
(** The calling domain's counters of the two simplify memos (per-pass
    rewrites and fixpoint results), summed. *)

val reset_cache_stats : unit -> unit

val set_test_only_break_rule : bool -> unit
(** TEST ONLY.  When enabled, rule 4's side condition is deliberately
    wrong ([x mod d -> x] already for [0 <= x < 2d]) — a seeded bug the
    conformance harness must catch and shrink.  Flushes the simplify memo
    on every flip so stale fixpoints cannot leak across the flag. *)
