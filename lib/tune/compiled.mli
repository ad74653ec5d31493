(** Layouts compiled to specialized flat-index closures.

    [Group_by.apply_ints] re-traverses the layout structure and
    allocates intermediate index lists on every call; at ~10³ address
    evaluations per candidate that is most of the tuner's static stage.
    {!compile} walks the structure {e once} and builds an [int -> int]
    closure over precomputed strides: [Reg] pieces become pure
    mixed-radix digit arithmetic (no table, so views of any size
    compile), [Gen] pieces a lazily-filled table (each address evaluated
    symbolically at most once).  The closure computes exactly
    [Group_by.apply_ints] — checked differentially over the conformance
    corpus — so fast-path simulations driven by compiled addresses stay
    bit-identical to the interpreter. *)

type t

val dims : t -> Lego_layout.Shape.t
val numel : t -> int

val compile : Lego_layout.Group_by.t -> t

val stage : Lego_layout.Order_by.t -> int -> int
(** One chain stage's flat-to-flat map.  A layout's map is the
    composition of its stages ([apply_flat (compile g)] is
    [chain (Group_by.chain g)]), which is what lets a scorer evaluate a
    shared chain tail once and map each candidate's outer stage over
    the result. *)

val chain : Lego_layout.Order_by.t list -> int -> int
(** The flat-to-flat map of a whole chain: its {!stage}s applied last
    element first, as [Group_by.apply] traverses them ([[]] is the
    identity). *)

val of_layout : Lego_layout.Group_by.t -> t
(** {!compile} memoized per {!Fingerprint} in domain-local storage —
    the "compile once per fingerprint" half of the fast path. *)

val apply_flat : t -> int -> int
(** [apply_flat c flat] = [Group_by.apply_ints g (unflatten (dims g) flat)]. *)

val apply : t -> int list -> int
(** [apply c idx] = [Group_by.apply_ints g idx]. *)

val clear_memo : unit -> unit
(** Drop this domain's fingerprint memo (tests / benchmarks). *)
