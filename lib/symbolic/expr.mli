(** Symbolic integer index expressions.

    This module replaces the paper's use of SymPy: a small normal-form
    expression algebra over the integers with floor division, remainder,
    comparisons, selection and integer square root — exactly the operations
    the LEGO layout algebra needs.  Smart constructors keep expressions in
    a light normal form (n-ary sums/products, folded constants, collected
    like terms, canonical argument order) so that structural equality is a
    useful notion and the rewrite rules of {!Rules} can match.

    Expressions are hash-consed: every node built by a smart constructor
    is routed through a bounded unique table, so structurally equal
    expressions are physically equal in the common case and
    {!equal}/{!compare} short-circuit on [==].  Each interned node carries
    an id that no other node in the process shares, on any domain, so
    memos key nodes by id.  Constant folding is overflow-safe: a fold that
    would wrap the native int is skipped and the node stays symbolic
    (which may relax the "at most one constant" invariant below in that
    corner case). *)

type t = private { node : node; id : int }
(** An interned node: its shape, and its id, unique in the process. *)

and node =
  | Const of int
  | Var of string
  | Add of t list
      (** n-ary sum; invariant: >= 2 summands, no nested [Add], at most one
          leading constant, like terms collected, canonically ordered. *)
  | Mul of t list
      (** n-ary product; invariant: >= 2 factors, no nested [Mul], at most
          one leading constant, canonically ordered. *)
  | Div of t * t  (** floor division *)
  | Mod of t * t  (** remainder matching floor division *)
  | Select of t * t * t  (** [Select (c, a, b)]: [a] if [c <> 0] else [b] *)
  | Le of t * t
  | Lt of t * t
  | Eq of t * t
  | Isqrt of t

val const : int -> t
val var : string -> t
val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val div : t -> t -> t
val md : t -> t -> t
val select : t -> t -> t -> t
val le : t -> t -> t
val lt : t -> t -> t
val eq : t -> t -> t
val isqrt : t -> t

val sum : t list -> t
val product : t list -> t

val compare : t -> t -> int
(** Total structural order (also the canonical argument order), with a
    physical-equality fast path at every node.  Ids play no part. *)

val equal : t -> t -> bool
(** [equal a b] is [a == b || compare a b = 0]; with hash-consing the
    physical test decides almost every call in O(1).  The structural
    fallback covers nodes interned on different domains, or on both
    sides of a flush of the unique table. *)

val memo : (unit, node, t) Memo.t
(** The hash-consing unique table (capacity 2^17, flushed when full),
    exposed for its {!Memo.stats}.  It hashes and compares a node
    shallowly: constructor, constant or variable name, and children's
    ids, children compared with [==]. *)

val map_children : (t -> t) -> t -> t
(** Apply [f] to immediate children and rebuild the node with smart
    constructors; leaves are returned unchanged. *)

val vars : t -> string list
(** Free variables, sorted, without duplicates. *)

val subst : (string * t) list -> t -> t
(** Simultaneous capture-free substitution (variables are free-only). *)

val as_linear_term : t -> int * t list
(** [as_linear_term e] decomposes [e] as [coeff * factors] with [factors]
    the non-constant part of a product (empty for a constant). *)

val of_linear_term : int * t list -> t

(** {2 Walks over the DAG}

    Hash-consing shares repeated subterms physically, so an expression
    can denote a tree exponentially larger than its distinct nodes.  The
    walks below — and [Cost.ops], [Cse.lower], [Expand.expand] and
    [C_printer.guard_nonneg] — key per-node work by node identity
    through {!Tbl}, so each visits every distinct node once, at O(1) per
    lookup.  Their results are still those of the tree: rendered text is
    the tree's text, and evaluation raises what a tree walk raises. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by node identity ([==], hashed by id): the one per-walk
    node memo.  A structurally equal but physically distinct node is a
    different key, which costs a repeat visit, never a wrong result. *)

module Id : Hashtbl.HashedType with type t = int
(** Node ids as {!Memo} keys ([Int.equal], hashed by the id itself):
    the key of the {!Range}, {!Prover} and {!Simplify} memos. *)

type column = { values : int array; raised : exn option array }
(** One evaluation per lane: lane [l] raised [ex] when [raised.(l) =
    Some ex], and evaluated to [values.(l)] otherwise. *)

val evaluator :
  params:string list -> t -> lanes:int -> int array array -> column
(** [evaluator ~params e] numbers [e]'s distinct nodes once, each
    variable resolved to its position in [params], and returns a
    function that evaluates [e] over [lanes] points at once: [cols.(k)]
    holds parameter [k]'s value in every lane.  Each node is computed
    column by column, once per call, so a node that recurs in the tree
    costs one pass over the lanes.  Every lane gets what a tree walk at
    that point gives: its value, or the first exception the walk raises
    there ([Division_by_zero] when a divisor evaluates to 0,
    [Invalid_argument] on [Isqrt] of a negative), with operands in the
    tree walk's order and only [Select]'s taken branch able to raise.
    Each call allocates its own state: one evaluator may be shared
    across domains.  Raises [Invalid_argument] when [e] has a variable
    outside [params]. *)

val eval : env:(string -> int) -> t -> int
(** A one-shot, one-lane {!evaluator}, paying the numbering each time:
    [env] is read once for each of [e]'s variables, whichever branches
    the evaluation takes, and the lane's exception, if any, is
    raised. *)

(** {2 Rendering} *)

type syntax = {
  mul : string;  (** between factors, e.g. ["*"] or [" * "] *)
  div : string;  (** between dividend and divisor, e.g. [" / "] or [" // "] *)
  select : [ `Ternary | `Call of string ];
      (** [c ? a : b], or a call [f(c, a, b)] *)
  isqrt : string * string;  (** the text before and after the operand *)
}
(** The spellings that differ between infix syntaxes.  Everything else
    is shared: C-like precedence with explicit parens where needed, [%]
    for remainder, [<=]/[<]/[==], a sum's negative-coefficient summands
    printed as subtractions. *)

val render : syntax -> t -> string
(** The infix text of the expression tree.  A first walk measures it,
    each distinct node once; a second writes it into one buffer of
    exactly that length, returned without a copy.  Each distinct node
    is rendered once and every later occurrence copies its bytes from
    the buffer, so the cost is linear in distinct nodes plus output
    bytes. *)

val pp : Format.formatter -> t -> unit
(** Human-readable infix form: {!render} with ["*"], [" / "], ternary
    selects and [isqrt(...)]. *)

val to_string : t -> string
