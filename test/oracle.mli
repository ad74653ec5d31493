(** Exact analytic cost oracle for affine warp access patterns.

    A warp access is a map from the lane id [t] (a [log2 warp_size]-bit
    vector) to an element address.  When that map is affine over GF(2)
    — [addr(t) = A t lxor a0] — the address set is a coset of the
    column space of [A], and the simulator's counting rules collapse to
    rank computations:

    - byte and word addresses stay affine, because multiplying by a
      power-of-two element size and dropping sub-word bits are both
      F₂-linear ([*2^k] shifts rows up, [/2^k] drops rows);
    - the distinct shared {e words} a warp touches form a coset of
      [im W] ([W] = the word rows of [A]), so there are [2^rank W] of
      them, and the bank projection ([bank = word mod nbanks], the low
      rows [B] of [W]) is uniform on that coset: every touched bank
      serves exactly [2^(rank W - rank B)] distinct words.  That is
      precisely {!Lego_gpusim.Access.bank_cycles_arr}'s
      max-degree-over-distinct-words, so the conflict multiplicity is
      [2^(rank W - rank B)] — exactly, not on average;
    - the distinct global {e segments} are a coset of [im S] ([S] = the
      segment rows of [A]), so the transaction count of
      {!Lego_gpusim.Access.txn_count_arr} is [2^rank S].

    The offset [a0] never enters: translating a coset permutes words
    within banks and segments without changing any multiplicity. *)

open Lego_f2

val of_lanes : int array -> (Bitmat.t * int) option
(** [of_lanes addrs] recognizes [addrs] (indexed by lane id, length a
    power of two, entries non-negative) as an affine map: probes the
    constant and basis columns, then verifies {e every} lane, so a
    non-affine pattern is always [None], never mis-modeled. *)

val compose_warp : Linear.t -> Bitmat.t * int -> Bitmat.t * int
(** [compose_warp lay (l, x0)] routes an affine lane-to-logical-index
    map through an affine layout: the result maps the lane id straight
    to the physical element address.  Raises [Invalid_argument] when the
    lane map's range does not fit the layout's bit width. *)

val bank_cycles :
  nbanks:int -> bank_bytes:int -> elem_bytes:int -> Bitmat.t -> int option
(** Closed-form shared-memory conflict multiplicity [2^(rank W - rank
    B)] of a full affine warp ([A]'s columns spanning all lane bits).
    [None] when the geometry is not power-of-two (the caller falls back
    to enumeration). *)

val txn_count : txn_bytes:int -> elem_bytes:int -> Bitmat.t -> int option
(** Closed-form global transaction count [2^rank S]; [None] on
    non-power-of-two geometry. *)
