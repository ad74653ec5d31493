(** Symbolic instantiation of the layout algebra.

    [Dom] makes {!Expr.t} an index domain, so every layout's [apply]/[inv]
    can be evaluated over symbolic indices to yield the index {e
    expressions} the paper's code generators print.  The helpers here also
    derive the range environment from the layout specification — the
    information the paper's custom SymPy traversal and Z3 queries rely
    on. *)

module Dom : Lego_layout.Domain.S with type t = Expr.t

val ranges_of : Lego_layout.Group_by.t -> Range.env
(** Each index component [ik] ranges over [0 .. extent - 1]; this is
    the paper's "range information propagated through the layout".  The
    env is interned by its bindings — the [(name, extent)] list — in a
    {!Memo} instance (capacity 4,096), so calls on one logical space
    share one physical env and with it the engine's per-env memos. *)

val inv_ranges : ?var:string -> Lego_layout.Group_by.t -> Range.env
(** The env {!inv} simplifies under: [var] (default ["p"]) ranges over
    [0 .. numel - 1].  Interned through the same instance as
    {!ranges_of}, so every inverse over one [numel] shares it. *)

val apply : ?simplify:bool -> Lego_layout.Group_by.t -> Expr.t
(** [apply g] is the symbolic physical offset of the logical index
    [i0, ..., i(d-1)], simplified under {!ranges_of} unless
    [simplify:false]. *)

val inv :
  ?simplify:bool -> ?var:string -> Lego_layout.Group_by.t -> Expr.t list
(** [inv g] is the symbolic logical index of physical offset [var]
    (default ["p"]), simplified under {!inv_ranges} unless
    [simplify:false]. *)
