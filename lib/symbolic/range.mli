(** Interval (range) analysis for index expressions.

    The paper derives the ranges of index variables from the layout
    specification and propagates them through the generated expressions so
    that the div/mod simplification side conditions can be discharged.
    This module is that propagation: a classic saturating interval
    domain. *)

type t = { lo : int; hi : int }
(** Inclusive bounds.  A lower bound at {!ninf} and an upper bound at
    {!pinf} mean "unbounded in that direction": arithmetic keeps them
    unbounded, and no comparison is decided from them.  Every other
    bound is a true one; arithmetic saturates a bound that passes a
    sentinel, which only widens the interval. *)

val pinf : int
val ninf : int

val top : t
val make : lo:int -> hi:int -> t
(** Raises [Invalid_argument] when [lo > hi]. *)

val of_extent : int -> t
(** [of_extent n] is [0 .. n-1] — the range of an index over a dimension
    of extent [n]. *)

val contains : t -> int -> bool
val pp : Format.formatter -> t -> unit

type env

val empty_env : env
val env_of_list : (string * t) list -> env
val env_add : string -> t -> env -> env

val of_expr : env -> Expr.t -> t
(** Range of an expression under variable ranges [env] (a variable
    [env] does not bind gets {!top}).  Sound over-approximation:
    evaluation under any environment consistent with [env] (and not
    raising) lands in the result.

    Results are memoized per environment (keyed by physical env identity,
    so any [env_add] invalidates) in a {!Memo} instance keyed by node
    id. *)
