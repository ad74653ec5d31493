(** Global-memory buffers for the simulator.

    All element types are stored as [float] values; the [dtype] tag only
    affects memory-traffic accounting (byte width) and FLOP-rate
    selection. *)

type dtype = F8 | F16 | F32 | I32

val dtype_bytes : dtype -> int
val dtype_name : dtype -> string

type buffer = private {
  id : int;
  label : string;
  dtype : dtype;
  data : float array;
}

val create : ?label:string -> dtype -> int -> buffer
val init : ?label:string -> dtype -> int -> (int -> float) -> buffer
val length : buffer -> int
val get : buffer -> int -> float
val set : buffer -> int -> float -> unit
val fill_random : buffer -> unit
(** Uniform values in [-1, 1], a fixed function of the buffer's id. *)

val max_abs_diff : buffer -> float array -> float

val create_arena :
  ?label:string -> dtype -> int -> cap:int -> buffer * (int -> int)
(** [create_arena dtype requested ~cap] allocates [min requested cap]
    elements and returns the buffer together with an address-folding
    function (the identity when everything fits).  Sampled performance
    runs use it to touch representative addresses without materializing
    multi-gigabyte operands; folding preserves intra-warp address deltas,
    so coalescing behaviour is unchanged.  Folding is a Euclidean
    remainder, so negative addresses land in [0 .. cap-1] rather than out
    of bounds. *)
