(** The layout-compile daemon (DESIGN.md §15).

    One {!t} owns the content-addressed {!Store} and an in-process
    {!Lego_tune.Cache}.  {!handle_batch} is the whole service as a
    function — the socket loop ({!serve}), the [--oneshot] self-test,
    the bench harness and the tests all drive the same entry point.

    {b Determinism contract.}  Identical request batches produce
    byte-identical response batches at any [jobs], against servers in
    identical states: a batch is served sequentially, each request
    parsed, handled and counted in submission order, its store writes,
    counters and tune-cache updates done before the next request is
    read; a tune search's result does not depend on [jobs]; and no
    response field carries wall-clock.  A compile that misses the store
    is stored at once, so an in-batch duplicate reads as a hit.

    {b Warm path.}  A [tune] request whose content address is already
    stored is answered from the store without invoking the tuner (zero
    simulator invocations — the [searches] counter stands still); a
    near-miss (same slot, different search shape) reuses the sims that
    this process's earlier searches left in the tune cache.  Sims are
    never stored: the cache starts empty and dies with the process, so
    no sim outlives the code that computed it.

    {b Threading.}  A {!t} is not synchronized: call [handle_batch],
    [serve] and [shutdown] from one domain at a time, which need not be
    the domain that created it. *)

type t

val create : ?db:string -> ?jobs:int -> unit -> t
(** [db]: the store's backing file ({!Store.default_path} is the
    daemon's conventional location; omit for a memory-only store).
    [jobs] (default 1) sizes each cold tune search's sim-rung pool
    ({!Lego_tune.Tune.options}[.jobs]); requests are served on the
    calling domain.  A db path that cannot be used raises as
    {!Store.open_} says. *)

val load : t -> Store.load
(** How the store came up (clean / recovered / fresh) — the server
    keeps running on a recovered or fresh store (cold start), it never
    refuses to boot over a damaged cache. *)

val store : t -> Store.t

val compile_key : fp:string -> device:string -> string
(** The store key of a compile artifact: {!Store.key} over the layout's
    canonical fingerprint and the (lowercased) device preset.  Exported
    so [legoc fingerprint] prints exactly the address the daemon uses. *)

val handle_batch : t -> Json.t -> Json.t
(** Serve one batch (a JSON array of requests); returns the response
    array, same length, submission order.  A non-array input yields a
    single error object. *)

type listener

val listen : socket:string -> listener
(** Bind and listen on a Unix-domain socket at [socket].  A socket file
    there that refuses connections, a killed daemon's leftover, is
    replaced; anything else stays, so a live daemon's socket or a
    regular file makes the bind fail with [EADDRINUSE].  Raises
    [Unix.Unix_error] if the path cannot be bound. *)

val serve : t -> listener -> unit
(** Accept connections one at a time, answering frame per frame,
    until a [shutdown] request has been served.  A reply over
    {!Protocol.max_frame_bytes} is replaced by one error per request of
    its batch, naming the reply's size and the limit; the store keeps
    what the batch wrote.  The socket file is removed on exit. *)

val shutdown : t -> unit
(** Release resources: flush + close the store.  Idempotent.  ({!serve}
    does not call this — the owner does, so a oneshot run can still
    inspect the store after serving.) *)

val stats_json : t -> Json.t
(** The same deterministic counter object a [stats] request returns. *)
