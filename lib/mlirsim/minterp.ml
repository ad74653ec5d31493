type value = Int of int | Mem of int array

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

exception Returned of int list

(* [s] holds the function's index slots, [mems] its memref arguments. *)
let rec exec (f : Mast.func) s mems = function
  | [] -> ()
  | op :: ops ->
    exec_op f s mems op;
    exec f s mems ops

and exec_op f s mems (op : Mast.op) =
  match op with
  | Constant { dst; value } -> s.(dst) <- value
  | Binop { dst; kind; lhs; rhs } ->
    let a = s.(lhs) and b = s.(rhs) in
    s.(dst) <-
      (match kind with
      | Mast.Add -> a + b
      | Mast.Mul -> a * b
      | Mast.FloorDiv ->
        if b = 0 then raise Division_by_zero
        else Lego_layout.Domain.floor_div a b
      | Mast.Rem ->
        if b = 0 then raise Division_by_zero
        else Lego_layout.Domain.floor_rem a b)
  | Cmpi { dst; kind; lhs; rhs } ->
    let a = s.(lhs) and b = s.(rhs) in
    s.(dst) <-
      Bool.to_int
        (match kind with
        | Mast.Le -> a <= b
        | Mast.Lt -> a < b
        | Mast.Eq -> a = b)
  | Select { dst; cond; if_true; if_false } ->
    s.(dst) <- s.(if s.(cond) <> 0 then if_true else if_false)
  | Isqrt { dst; arg } -> s.(dst) <- Lego_layout.Domain.int_isqrt s.(arg)
  | Load { dst; mem; idx } ->
    let a = mems.(mem) and i = s.(idx) in
    if i < 0 || i >= Array.length a then
      err "load out of bounds: %%%s[%d] (size %d)" f.mem_names.(mem) i
        (Array.length a);
    s.(dst) <- a.(i)
  | Store { value; mem; idx } ->
    let a = mems.(mem) and i = s.(idx) in
    if i < 0 || i >= Array.length a then
      err "store out of bounds: %%%s[%d] (size %d)" f.mem_names.(mem) i
        (Array.length a);
    a.(i) <- s.(value)
  | For { var; lb; ub; step; body } ->
    let ub = s.(ub) and step = s.(step) in
    if step <= 0 then err "scf.for with non-positive step %d" step;
    let i = ref s.(lb) in
    while !i < ub do
      s.(var) <- !i;
      exec f s mems body;
      i := !i + step
    done
  | Return slots -> raise (Returned (List.map (Array.get s) slots))

let run_func m name args =
  match Mast.find_func m name with
  | None -> err "no function @%s in module" name
  | Some f ->
    if List.length args <> List.length f.params then
      err "@%s expects %d arguments, got %d" name (List.length f.params)
        (List.length args);
    let s = Array.make (Array.length f.index_names) 0 in
    let mems = Array.make (Array.length f.mem_names) [||] in
    List.iter2
      (fun (param : Mast.slot) arg ->
        match (param, arg) with
        | Index k, Int v -> s.(k) <- v
        | Memref k, Mem a -> mems.(k) <- a
        | Index k, Mem _ ->
          err "@%s: %%%s expects an index" name f.index_names.(k)
        | Memref k, Int _ ->
          err "@%s: %%%s expects a memref" name f.mem_names.(k))
      f.params args;
    (try
       exec f s mems f.body;
       []
     with Returned vs -> vs)
