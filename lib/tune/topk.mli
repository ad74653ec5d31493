(** Bounded best-K retention: the streaming funnel's replacement for
    "score everything, sort, take K".

    [add] keeps the [cmp]-{e smallest} [cap] elements seen so far in a
    binary max-heap — O(log cap) when an element is retained, O(1) when
    it is dropped against the current worst — so ranking memory is
    O(min(cap, elements added)) over a 10⁵–10⁶-candidate stream.  With
    a {e total} [cmp] (the tuner's comparators all end in a fingerprint
    tie-break) the retained set, and hence {!sorted}, is a pure function
    of the multiset of added elements: [sorted] equals
    [List.sort cmp all |> take cap] whatever the arrival order — the
    property the determinism tests assert. *)

type 'a t

val create : cap:int -> cmp:('a -> 'a -> int) -> 'a t
(** Raises [Invalid_argument] when [cap < 1].  [cmp] must be a total
    order; ties make the retained set depend on arrival order. *)

val add : 'a t -> 'a -> unit
val size : 'a t -> int

val sorted : 'a t -> 'a list
(** The retained elements, best ([cmp]-smallest) first.  O(size log
    size); does not mutate the heap. *)
