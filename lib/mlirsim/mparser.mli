(** Parser for the emitted MLIR subset (see {!Mast}).

    Line-oriented recursive-descent: enough to round-trip everything
    {!Lego_codegen.Mlir_gen} produces, with positioned error messages.
    It resolves every SSA name to its slot while it reads, so a use
    before definition, a redefinition, and a memref where an index is
    expected (or the reverse) are parse errors naming the value.  Values
    defined in an [scf.for] body leave scope at its closing brace. *)

exception Parse_error of int * string
(** Line number (1-based) and description. *)

val parse_module : string -> Mast.modul
(** Raises {!Parse_error}. *)

val parse_module_result : string -> (Mast.modul, string) result
(** [Error "line N: description"] where {!parse_module} raises. *)
