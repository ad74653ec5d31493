(** The symbolic engine's one cache mechanism: bounded, domain-local memo
    tables, one per recently created environment.

    An instance keeps, in each domain, a table for each of its [envs]
    most recently created environments.  Environments are matched by
    physical identity, so a logically equal but freshly built
    environment gets a fresh table (and an [env_add] invalidates).  When
    a new environment arrives and all [envs] slots are taken, the oldest
    environment's table is dropped (a hit does not make an environment
    newer); when a table reaches [capacity] entries it is flushed before
    the next insertion.  Both count as an eviction.

    Each instance names its keys' hash and equality (a
    [Hashtbl.HashedType]), so a table hashes only what identifies a key:
    [Expr]'s unique table hashes a node's constructor, payload and
    children's ids, and the id-keyed memos hash one int.

    Tables and counters are domain-local: each domain of the execution
    layer (lib/exec) starts with no tables and zero counters, and never
    contends with another.  A memo never supplies a value of its own: it
    only decides whether its caller recomputes one, so flushing or
    dropping never changes a result. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** dropped environments plus flushed tables *)
}

type ('env, 'k, 'v) t
(** An instance mapping keys ['k] to values ['v] per environment ['env]. *)

type ('k, 'v) table
(** One environment's table in the calling domain. *)

type 'k key = (module Hashtbl.HashedType with type t = 'k)
(** How an instance hashes and compares its keys. *)

val create :
  name:string -> ?envs:int -> key:'k key -> capacity:int -> initial:int ->
  unit -> ('env, 'k, 'v) t
(** An instance keeping [envs] environments (default 1), each table a
    [Hashtbl.Make (key)] table holding at most [capacity] entries and
    created with room for [initial].  Call once per instance, at module
    initialisation: the instance is registered for {!all}. *)

val table : ('env, 'k, 'v) t -> 'env -> ('k, 'v) table
(** The calling domain's table for [env], created (and possibly dropping
    the oldest environment) on first use. *)

val find : ('k, 'v) table -> 'k -> 'v option
(** Counted lookup: a hit or a miss. *)

val add : ('k, 'v) table -> 'k -> 'v -> unit
(** Insert, flushing a full table first. *)

val stats : ('env, 'k, 'v) t -> stats
(** The calling domain's counters. *)

val reset_stats : ('env, 'k, 'v) t -> unit
(** Zero the calling domain's counters (its tables are kept). *)

val clear : ('env, 'k, 'v) t -> unit
(** Drop the calling domain's tables (its counters are kept). *)

val all : unit -> (string * stats) list
(** Every instance's name and counters in the calling domain, in
    creation order. *)
