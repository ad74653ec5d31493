exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let strip s = String.trim s

(* "%name" -> "name" *)
let ssa line s =
  let s = strip s in
  if String.length s > 1 && s.[0] = '%' then String.sub s 1 (String.length s - 1)
  else fail line (Printf.sprintf "expected an SSA name, got %S" s)

let split_commas s = List.map strip (String.split_on_char ',' s)

(* Split "lhs : type" and return lhs. *)
let drop_type line s =
  match String.index_opt s ':' with
  | Some k -> strip (String.sub s 0 k)
  | None -> fail line (Printf.sprintf "missing type annotation in %S" s)

(* ---- Name resolution ---------------------------------------------------- *)

(* The names in scope while one function is read, each bound to its
   slot.  A region's definitions leave scope at its closing brace, as
   in MLIR, so a bound name always denotes a value computed earlier on
   every path that reaches its use. *)
type scope = {
  bound : (string, Mast.slot) Hashtbl.t;
  mutable index_names : string list;  (* newest first *)
  mutable n_index : int;
  mutable mem_names : string list;  (* newest first *)
  mutable n_mem : int;
  mutable region : string list;  (* defined in the innermost region *)
}

let new_scope () =
  {
    bound = Hashtbl.create 64;
    index_names = [];
    n_index = 0;
    mem_names = [];
    n_mem = 0;
    region = [];
  }

let bind sc line name b =
  if Hashtbl.mem sc.bound name then
    fail line (Printf.sprintf "redefinition of %%%s" name);
  Hashtbl.add sc.bound name b;
  sc.region <- name :: sc.region

let define sc line name =
  let k = sc.n_index in
  bind sc line name (Mast.Index k);
  sc.index_names <- name :: sc.index_names;
  sc.n_index <- k + 1;
  k

let define_mem sc line name =
  let k = sc.n_mem in
  bind sc line name (Mast.Memref k);
  sc.mem_names <- name :: sc.mem_names;
  sc.n_mem <- k + 1;
  k

let lookup sc line name =
  match Hashtbl.find_opt sc.bound name with
  | Some b -> b
  | None -> fail line (Printf.sprintf "%%%s is used before its definition" name)

let use sc line s =
  let name = ssa line s in
  match lookup sc line name with
  | Index k -> k
  | Memref _ ->
    fail line (Printf.sprintf "%%%s is a memref, expected an index" name)

let use_mem sc line s =
  let name = ssa line s in
  match lookup sc line name with
  | Memref k -> k
  | Index _ ->
    fail line (Printf.sprintf "%%%s is an index, expected a memref" name)

(* ---- Lines -------------------------------------------------------------- *)

let re_func =
  Str.regexp
    {|func\.func @\([A-Za-z0-9_]+\)(\([^)]*\))\( -> .*\)? {|}

let re_assign = Str.regexp {|\(%[A-Za-z0-9_]+\) = \(.*\)|}

let re_for =
  Str.regexp
    {|scf\.for \(%[A-Za-z0-9_]+\) = \(%[A-Za-z0-9_]+\) to \(%[A-Za-z0-9_]+\) step \(%[A-Za-z0-9_]+\) {|}

let re_load = Str.regexp {|memref\.load \(%[A-Za-z0-9_]+\)\[\(%[A-Za-z0-9_]+\)\]|}

let re_store =
  Str.regexp
    {|memref\.store \(%[A-Za-z0-9_]+\), \(%[A-Za-z0-9_]+\)\[\(%[A-Za-z0-9_]+\)\]|}

let parse_param sc line p =
  match String.split_on_char ':' p with
  | [ name; ty ] ->
    let name = ssa line name in
    let ty = strip ty in
    if ty = "index" then Mast.Index (define sc line name)
    else if String.length ty >= 6 && String.sub ty 0 6 = "memref" then
      Mast.Memref (define_mem sc line name)
    else fail line (Printf.sprintf "unsupported parameter type %S" ty)
  | _ -> fail line (Printf.sprintf "malformed parameter %S" p)

(* Parse the right-hand side of an assignment, resolving its operands;
   the result still wants its destination slot, which is defined only
   after the operands are read. *)
let parse_rhs sc line rhs : int -> Mast.op =
  let use = use sc line in
  let binop kind rest =
    match split_commas (drop_type line rest) with
    | [ a; b ] ->
      let lhs = use a in
      let rhs = use b in
      fun dst -> Mast.Binop { dst; kind; lhs; rhs }
    | _ -> fail line "binary op expects two operands"
  in
  let word, rest =
    match String.index_opt rhs ' ' with
    | Some k ->
      ( String.sub rhs 0 k,
        strip (String.sub rhs (k + 1) (String.length rhs - k - 1)) )
    | None -> (rhs, "")
  in
  match word with
  | "arith.constant" -> (
    match int_of_string_opt (drop_type line rest) with
    | Some value -> fun dst -> Mast.Constant { dst; value }
    | None -> fail line (Printf.sprintf "bad constant %S" rest))
  | "arith.addi" -> binop Mast.Add rest
  | "arith.muli" -> binop Mast.Mul rest
  | "arith.floordivsi" -> binop Mast.FloorDiv rest
  | "arith.remsi" -> binop Mast.Rem rest
  | "arith.cmpi" -> (
    match split_commas (drop_type line rest) with
    | [ pred; a; b ] ->
      let kind =
        match pred with
        | "sle" -> Mast.Le
        | "slt" -> Mast.Lt
        | "eq" -> Mast.Eq
        | p -> fail line (Printf.sprintf "unsupported cmpi predicate %S" p)
      in
      let lhs = use a in
      let rhs = use b in
      fun dst -> Mast.Cmpi { dst; kind; lhs; rhs }
    | _ -> fail line "cmpi expects predicate and two operands")
  | "arith.select" -> (
    match split_commas (drop_type line rest) with
    | [ c; a; b ] ->
      let cond = use c in
      let if_true = use a in
      let if_false = use b in
      fun dst -> Mast.Select { dst; cond; if_true; if_false }
    | _ -> fail line "select expects three operands")
  | "lego.isqrt" ->
    let arg = use (drop_type line rest) in
    fun dst -> Mast.Isqrt { dst; arg }
  | "memref.load" ->
    if Str.string_match re_load rhs 0 then begin
      let mem = use_mem sc line (Str.matched_group 1 rhs) in
      let idx = use (Str.matched_group 2 rhs) in
      fun dst -> Mast.Load { dst; mem; idx }
    end
    else fail line (Printf.sprintf "malformed load %S" rhs)
  | other -> fail line (Printf.sprintf "unsupported operation %S" other)

let parse_module text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let pos = ref 0 in
  let peek () = if !pos < n then Some (strip lines.(!pos)) else None in
  (* Line number of the most recently consumed line. *)
  let cur_line = ref 0 in
  let lineno () = !cur_line in
  let next () =
    let l = peek () in
    cur_line := !pos + 1;
    incr pos;
    l
  in
  (* Parse ops until a lone "}" closes the current region. *)
  let rec parse_ops sc acc =
    match next () with
    | None -> fail (lineno ()) "unexpected end of input inside a region"
    | Some "" -> parse_ops sc acc
    | Some "}" -> List.rev acc
    | Some line when Str.string_match re_for line 0 ->
      let l = lineno () in
      let group k = Str.matched_group k line in
      let lb = use sc l (group 2) in
      let ub = use sc l (group 3) in
      let step = use sc l (group 4) in
      let outer = sc.region in
      sc.region <- [];
      let var = define sc l (ssa l (group 1)) in
      let body = parse_ops sc [] in
      List.iter (Hashtbl.remove sc.bound) sc.region;
      sc.region <- outer;
      parse_ops sc (Mast.For { var; lb; ub; step; body } :: acc)
    | Some line when Str.string_match re_store line 0 ->
      let l = lineno () in
      let group k = Str.matched_group k line in
      let value = use sc l (group 1) in
      let mem = use_mem sc l (group 2) in
      let idx = use sc l (group 3) in
      parse_ops sc (Mast.Store { value; mem; idx } :: acc)
    | Some line when String.length line >= 6 && String.sub line 0 6 = "return"
      ->
      let rest = strip (String.sub line 6 (String.length line - 6)) in
      let slots =
        if rest = "" then []
        else
          let operands =
            match String.index_opt rest ':' with
            | Some k -> String.sub rest 0 k
            | None -> rest
          in
          List.map (use sc (lineno ())) (split_commas operands)
      in
      parse_ops sc (Mast.Return slots :: acc)
    | Some line when Str.string_match re_assign line 0 ->
      let l = lineno () in
      let dst = ssa l (Str.matched_group 1 line) in
      let op = parse_rhs sc l (strip (Str.matched_group 2 line)) in
      parse_ops sc (op (define sc l dst) :: acc)
    | Some line -> fail (lineno ()) (Printf.sprintf "cannot parse %S" line)
  in
  let rec parse_funcs acc =
    match next () with
    | None -> List.rev acc
    | Some "" -> parse_funcs acc
    | Some "module {" -> parse_funcs acc
    | Some "}" -> parse_funcs acc
    | Some line when Str.string_match re_func line 0 ->
      let fname = Str.matched_group 1 line in
      let params_text = Str.matched_group 2 line in
      let sc = new_scope () in
      let params =
        if strip params_text = "" then []
        else List.map (parse_param sc (lineno ())) (split_commas params_text)
      in
      let body = parse_ops sc [] in
      let names l = Array.of_list (List.rev l) in
      parse_funcs
        ({
           Mast.fname;
           params;
           body;
           index_names = names sc.index_names;
           mem_names = names sc.mem_names;
         }
        :: acc)
    | Some line -> fail (lineno ()) (Printf.sprintf "cannot parse %S" line)
  in
  parse_funcs []

let parse_module_result text =
  match parse_module text with
  | m -> Ok m
  | exception Parse_error (line, msg) ->
    Error (Printf.sprintf "line %d: %s" line msg)
