(** Minimal JSON for the compile service.

    The container has no JSON library, and the protocol needs very
    little: finite scalars, strings, arrays, objects.  What it {e does}
    need — and what this module guarantees — is {b deterministic
    printing}: [to_string] is a pure function of the value (object
    fields print in construction order, numbers through a fixed
    shortest-round-trip rule), because the server's contract is that
    identical request batches produce {e byte-identical} response
    frames at any [-j].

    Ints and floats are kept distinct ([Int] prints without a decimal
    point and re-parses as [Int]), so integer counters survive a
    round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** Finite only: printing nan/inf raises. *)
  | Str of string  (** Arbitrary bytes; non-ASCII prints escaped. *)
  | List of t list
  | Obj of (string * t) list  (** Field order is significant for printing. *)

val to_string : t -> string
(** Compact (no whitespace), deterministic.  Raises [Invalid_argument]
    on a non-finite float. *)

val of_string : string -> (t, string) result
(** Strict JSON parse of the whole input (trailing garbage is an
    error).  Numbers without [.]/[e] that fit in [int] parse as [Int],
    everything else as [Float]. *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val get_string : t -> string option
val get_int : t -> int option
val get_list : t -> t list option

val mem_string : string -> t -> string option
val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
val mem_bool : string -> t -> bool option
(** [mem_* f j] = [member f j |> get_*] — field accessors.
    [mem_float] accepts [Int] too (widening). *)

val equal : t -> t -> bool
(** Structural equality (field order significant, like printing). *)
