(** Wire protocol of the layout-compile service (DESIGN.md §15).

    {b Framing.}  A connection is a sequence of frames in each
    direction; one client frame carries one {e batch} (a JSON array of
    request objects), one server frame carries the response array, same
    length, {b submission order} — response [i] answers request [i]
    whatever parallelism served the batch.  A frame is a 4-byte
    big-endian byte length followed by that many bytes of JSON text.
    Frames above {!max_frame_bytes} are rejected (a corrupt or hostile
    length prefix must not allocate unbounded memory).

    {b Requests.}  Every request object carries an ["op"] field:
    - [{"op":"compile","layout":L,"emit":[...],"device":D}] — parse the
      layout expression, return its canonical form, fingerprint,
      simplified symbolic offset and generated C/Triton/MLIR text.
      ["emit"] (optional) selects backends for the response; the store
      always keeps all of them.
    - [{"op":"tune","slot":S,"device":D,"budget":N,"top":K,"seed":N,
      "conform":B}] — run (or answer from the store) the autotune search
      for a kernel slot under a device preset.  ["budget"] and ["top"]
      are optional; a value below 1 is a request error.  ["oracle"]
      (F₂ class mode) was removed: [false] is accepted, [true] is a
      request error.
    - [{"op":"fingerprint","layout":L,"device":D}] — the layout's
      canonical fingerprint and content-address store key, for
      inspecting and correlating cache entries by hand.
    - [{"op":"stats"}] — deterministic server counters (no wall-clock).
    - [{"op":"shutdown"}] — reply, then stop the server cleanly.

    Each op accepts exactly the fields shown, each optional unless the
    op needs it.  A field the op does not accept, or one with the wrong
    JSON type (["budget":"64"], ["emit":"c"]), is a request error that
    names the field — never a silent fall-back to the default.

    {b Responses} are objects with ["ok"] first: [true] followed by the
    op's payload fields, or [false] with ["error"]. *)

val max_frame_bytes : int
(** 64 MiB. *)

val write_frame : Unix.file_descr -> Json.t -> unit
(** Serialize and send one frame (handles short writes). *)

val read_frame : Unix.file_descr -> (Json.t option, string) result
(** [Ok None] on orderly EOF before a frame starts; [Error] on a
    truncated frame, an oversized length prefix, or unparseable JSON. *)

type tune_params = {
  slot : string;
  device : string;  (** {!Lego_gpusim.Device.presets} key, default "a100". *)
  budget : int option;
  top : int option;
  seed : int;
  oracle : bool;
      (** Always [false] from {!request_of_json}: F₂ class mode was
          removed, and ["oracle": true] is a request error.  The field
          stays because [perfbench/] builds this record. *)
  conform : bool;  (** Winner conformance check (default off: latency). *)
}

type request =
  | Compile of { layout : string; emit : string list; device : string }
  | Tune of tune_params
  | Fingerprint of { layout : string; device : string }
  | Stats
  | Shutdown

val request_of_json : Json.t -> (request, string) result
(** [Error] says what is wrong, naming the offending field where there
    is one (see {b Requests} above). *)

val json_of_request : request -> Json.t
(** Inverse of {!request_of_json} (used by the client and tests). *)

val error_response : string -> Json.t
(** [{"ok":false,"error":msg}]. *)
