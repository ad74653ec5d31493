(** Greedy shrinking of failing layouts.

    Given a predicate that holds on a failing layout (e.g. "some backend
    disagrees with the reference interpreter"), repeatedly tries
    structure-removing rewrites — dropping a chained [OrderBy], replacing
    a piece with the identity row layout of the same size, flattening the
    grouping hierarchy — and keeps the first rewrite that still fails.
    The result is a (locally) minimal reproduction to print for the
    user. *)

val minimize :
  (Lego_layout.Group_by.t -> bool) ->
  Lego_layout.Group_by.t ->
  Lego_layout.Group_by.t
(** [minimize still_fails g] greedily shrinks [g] while [still_fails]
    holds, evaluating the predicate at most 200 times.  [still_fails g]
    itself is assumed true and is not re-checked. *)
