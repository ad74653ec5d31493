(** Content-addressed persistent store (DESIGN.md §15).

    The compile pipeline is a pure function of its inputs, so its
    results are addressed by a digest of those inputs: {!key} hashes a
    canonical part list — always implicitly prefixed by the format
    {!version} — into a hex MD5 that names the entry.  Two entry kinds
    share the namespace (disambiguated by a kind tag inside the key
    parts {e and} the value): [compile] results (simplified form +
    generated code per backend) and [tune] winners (layout, cost,
    search shape).  An older db's [sim] records (simulator rung results)
    still load and count in {!length}, but nothing reads them.

    {b On disk}: an append-only log — a fixed header line, then
    records of [4-byte big-endian length | payload | 16-byte MD5 of
    payload], each payload the JSON [{"k":hex,"v":value}].  Updates
    append (last record wins at load), so a crash can only damage the
    tail.  {!open_} replays the log; at the first bad record (short
    read, absurd length, checksum or JSON mismatch) it stops, keeps
    everything before it, and {b truncates} the file there so later
    appends stay readable — a corrupt db degrades to a shorter one,
    never a crash.  A foreign or damaged header degrades to an empty
    store (cold start), rewriting the file.

    In memory it is a hash table, not synchronized: the server reads
    and writes it from one domain at a time. *)

type t

val version : string
(** Format/tool version baked into every {!key} — bump it and every
    old entry silently misses (the upgrade story for cost-model or
    codegen changes). *)

val header_line : string
(** First bytes of every db file (["LEGO-STORE v1\n"]); anything else
    is a foreign file and cold-starts. *)

type load = Fresh | Loaded of int | Recovered of int * string
    (** [Fresh]: new or memory-only db.  [Loaded n]: n entries, clean.
        [Recovered (n, why)]: n entries salvaged before corruption
        ([why] says what was wrong); the file was truncated to the
        salvaged prefix. *)

val open_ : ?path:string -> unit -> t * load
(** No [path] = memory-only (tests, ephemeral servers).  With [path],
    loads (or creates) the db file; the directory must exist or be
    creatable.  A path that cannot be used raises [Sys_error "PATH:
    reason"] (or [Unix.Unix_error] from creating its directory). *)

val key : string list -> string
(** Hex MD5 of the canonical encoding of [version :: parts].  Parts
    are length-delimited before hashing, so no two distinct part lists
    collide by concatenation. *)

val get : t -> string -> Json.t option

val put : t -> key:string -> Json.t -> unit
(** Insert/overwrite, appending to the log when persistent.  A [put]
    whose value equals the stored one is a no-op (no disk append).  A
    record over {!Protocol.max_frame_bytes}, which load would reject,
    is kept in memory only, so the records after it stay loadable. *)

val length : t -> int
val iter : t -> (key:string -> Json.t -> unit) -> unit

val flush : t -> unit
(** Flush buffered appends to the OS. *)

val close : t -> unit
(** Flush and close the log.  Idempotent; [put] after [close] raises. *)

val default_path : unit -> string
(** [$XDG_CACHE_HOME/lego/store.db] (or [~/.cache/lego/store.db]) —
    the daemon's default db location. *)
