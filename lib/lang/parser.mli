(** Recursive-descent parser for the LEGO notation.

    Accepted notation (arity suffixes like [OrderBy4] are optional and
    checked when present):

    {v
    chain  ::= block ('.' block)*
    block  ::= OrderByN '(' aexpr (',' aexpr)* ')'
             | TileOrderBy '(' aexpr (',' aexpr)* ')'
             | GroupByN '(' shape (',' shape)* ')'
             | TileBy '(' shape (',' shape)* ')'
    aexpr  ::= aterm ('o' aterm)*            (left-associative compose)
    aterm  ::= perm
             | Strided '(' shape ',' shape ')'
             | complement '(' aexpr ',' int ')'
             | divide '(' aexpr ',' aexpr ')'
             | product '(' aexpr ',' aexpr ')'
             | '(' aexpr ')'
    perm   ::= RegP '(' shape ',' shape ')'
             | GenP '(' ident shape ')'
             | Row '(' ints ')'  |  Col '(' ints ')'
    shape  ::= '[' int (',' int)* ']'
    v}

    The arity annotation on [OrderByN] applies to atoms and [Strided]
    literals; operator results have no syntactic rank and are exempt. *)

val parse : string -> (Ast.chain, string) result
(** Error message includes the position. *)
