(** The layout-compile daemon (DESIGN.md §15).

    One {!t} owns the content-addressed {!Store}, a persistent
    {!Lego_tune.Cache} warm-started from it, and a lazy
    {!Lego_exec.Exec} pool.  {!handle_batch} is the whole service as a
    function — the socket loop ({!serve}), the [--oneshot] self-test,
    the bench harness and the tests all drive the same entry point.

    {b Determinism contract.}  Identical request batches produce
    byte-identical response batches at any [jobs], against servers in
    identical states: pure requests (compile, fingerprint) fan out over
    the pool via [Exec.map] (submission-order merge), all state
    mutation — store writes, counters, the tune cache — happens in a
    sequential walk in submission order, and no response field carries
    wall-clock.  The store is read inside the parallel section and
    written only in the sequential walk, mirroring the tune cache's
    discipline.

    {b Warm path.}  A [tune] request whose content address is already
    stored is answered from the store without invoking the tuner (zero
    simulator invocations — the [searches] counter stands still); a
    near-miss (same slot, different search shape) still warm-starts
    from persisted per-layout [sim] records injected into the tune
    cache at startup and flushed after every cold search.

    {b Threading.}  [handle_batch]/[serve] must run in one domain —
    the one that first calls them (the pool is created there); [create]
    may run anywhere. *)

type t

val create : ?db:string -> ?jobs:int -> unit -> t
(** [db]: the store's backing file ({!Store.default_path} is the
    daemon's conventional location; omit for a memory-only store).
    [jobs] (default 1) sizes the request fan-out pool and every tune
    search. *)

val load : t -> Store.load
(** How the store came up (clean / recovered / fresh) — the server
    keeps running on a recovered or fresh store (cold start), it never
    refuses to boot over a damaged cache. *)

val jobs : t -> int
val store : t -> Store.t
val stopped : t -> bool
(** A [shutdown] request was served. *)

val compile_key : fp:string -> device:string -> string
(** The store key of a compile artifact: {!Store.key} over the layout's
    canonical fingerprint and the (lowercased) device preset.  Exported
    so [legoc fingerprint] prints exactly the address the daemon uses. *)

val handle_batch : t -> Json.t -> Json.t
(** Serve one batch (a JSON array of requests); returns the response
    array, same length, submission order.  A non-array input yields a
    single error object. *)

val serve : t -> socket:string -> unit
(** Bind a Unix-domain socket at [socket] (replacing a stale file),
    then accept connections one at a time, answering frame per frame,
    until a [shutdown] request has been served.  A reply over
    {!Protocol.max_frame_bytes} is replaced by one error per request of
    its batch, naming the reply's size and the limit; the store keeps
    what the batch wrote.  The socket file is removed on exit. *)

val shutdown : t -> unit
(** Release resources: flush + close the store, stop the pool.
    Idempotent.  ({!serve} does not call this — the owner does, so a
    oneshot run can still inspect the store after serving.) *)

val stats_json : t -> Json.t
(** The same deterministic counter object a [stats] request returns. *)
