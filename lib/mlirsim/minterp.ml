type value = Int of int | Mem of int array

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* The slots a [return] names; its values are read where the call ends. *)
exception Returned of int list

(* Every lane of the range being run has raised. *)
exception Stop

type lanes = { results : int array array; raised : exn option array }

(* One call over [n] lanes: [s] holds one column per index slot, [mems]
   the memref arguments, [raised] each lane's first exception and
   [live] the number of lanes without one. *)
type state = {
  s : int array array;
  mems : int array array;
  raised : exn option array;
  mutable live : int;
}

let fail st l ex =
  if st.raised.(l) = None then begin
    st.raised.(l) <- Some ex;
    st.live <- st.live - 1
  end

(* Runs [ops] on lanes [lo, hi), each op over every lane before the
   next, so a lane's first exception is the one a run of that lane
   alone raises.  A lane that has raised computes on, but without
   effect on memory or its exception, until every lane of the range
   has raised. *)
let rec exec (f : Mast.func) st lo hi ops =
  List.iter
    (fun op ->
      exec_op f st lo hi op;
      if (if hi - lo = 1 then st.raised.(lo) <> None else st.live = 0) then
        raise_notrace Stop)
    ops

and exec_op f st lo hi (op : Mast.op) =
  let s = st.s in
  match op with
  | Constant { dst; value } -> Array.fill s.(dst) lo (hi - lo) value
  | Binop { dst; kind; lhs; rhs } -> (
    let a = s.(lhs) and b = s.(rhs) and d = s.(dst) in
    match kind with
    | Mast.Add ->
      for l = lo to hi - 1 do
        d.(l) <- a.(l) + b.(l)
      done
    | Mast.Mul ->
      for l = lo to hi - 1 do
        d.(l) <- a.(l) * b.(l)
      done
    | Mast.FloorDiv | Mast.Rem ->
      let op =
        if kind = Mast.FloorDiv then Lego_layout.Domain.floor_div
        else Lego_layout.Domain.floor_rem
      in
      for l = lo to hi - 1 do
        if b.(l) = 0 then fail st l Division_by_zero
        else d.(l) <- op a.(l) b.(l)
      done)
  | Cmpi { dst; kind; lhs; rhs } ->
    let a = s.(lhs) and b = s.(rhs) and d = s.(dst) in
    let cmp : int -> int -> bool =
      match kind with Mast.Le -> ( <= ) | Mast.Lt -> ( < ) | Mast.Eq -> ( = )
    in
    for l = lo to hi - 1 do
      d.(l) <- Bool.to_int (cmp a.(l) b.(l))
    done
  | Select { dst; cond; if_true; if_false } ->
    let c = s.(cond) and a = s.(if_true) and b = s.(if_false) and d = s.(dst) in
    for l = lo to hi - 1 do
      d.(l) <- (if c.(l) <> 0 then a.(l) else b.(l))
    done
  | Isqrt { dst; arg } ->
    let a = s.(arg) and d = s.(dst) in
    for l = lo to hi - 1 do
      match Lego_layout.Domain.int_isqrt a.(l) with
      | v -> d.(l) <- v
      | exception ex -> fail st l ex
    done
  | Load { dst; mem; idx } ->
    let a = st.mems.(mem) and i = s.(idx) and d = s.(dst) in
    for l = lo to hi - 1 do
      if st.raised.(l) = None then
        if i.(l) < 0 || i.(l) >= Array.length a then
          fail st l
            (Runtime_error
               (Printf.sprintf "load out of bounds: %%%s[%d] (size %d)"
                  f.mem_names.(mem) i.(l) (Array.length a)))
        else d.(l) <- a.(i.(l))
    done
  | Store { value; mem; idx } ->
    let a = st.mems.(mem) and i = s.(idx) and v = s.(value) in
    for l = lo to hi - 1 do
      if st.raised.(l) = None then
        if i.(l) < 0 || i.(l) >= Array.length a then
          fail st l
            (Runtime_error
               (Printf.sprintf "store out of bounds: %%%s[%d] (size %d)"
                  f.mem_names.(mem) i.(l) (Array.length a)))
        else a.(i.(l)) <- v.(l)
    done
  | For { var; lb; ub; step; body } ->
    (* Each lane runs its own trip count, its body one lane wide. *)
    for l = lo to hi - 1 do
      let ub = s.(ub).(l) and step = s.(step).(l) in
      if st.raised.(l) <> None then ()
      else if step <= 0 then
        fail st l
          (Runtime_error
             (Printf.sprintf "scf.for with non-positive step %d" step))
      else begin
        let i = ref s.(lb).(l) in
        while !i < ub && st.raised.(l) = None do
          s.(var).(l) <- !i;
          (try exec f st l (l + 1) body with Stop -> ());
          i := !i + step
        done
      end
    done
  | Return slots -> raise_notrace (Returned slots)

(* The one executor: [f] named [name] over [n] lanes, its [k]-th
   argument bound by [bind st k param]. *)
let call name (f : Mast.func) ~arity ~n ~bind =
  if arity <> List.length f.params then
    err "@%s expects %d arguments, got %d" name (List.length f.params) arity;
  let st =
    {
      s = Array.init (Array.length f.index_names) (fun _ -> Array.make n 0);
      mems = Array.make (Array.length f.mem_names) [||];
      raised = Array.make n None;
      live = n;
    }
  in
  List.iteri (fun k param -> bind st k param) f.params;
  let returned =
    match exec f st 0 n f.body with
    | () | (exception Stop) -> []
    | exception Returned slots -> slots
  in
  {
    results = Array.of_list (List.map (Array.get st.s) returned);
    raised = st.raised;
  }

let run_func m name args =
  match Mast.find_func m name with
  | None -> err "no function @%s in module" name
  | Some f -> (
    let args = Array.of_list args in
    let r =
      call name f ~arity:(Array.length args) ~n:1 ~bind:(fun st k param ->
          match (param, args.(k)) with
          | Mast.Index j, Int v -> st.s.(j).(0) <- v
          | Memref j, Mem a -> st.mems.(j) <- a
          | Index j, Mem _ ->
            err "@%s: %%%s expects an index" name f.index_names.(j)
          | Memref j, Int _ ->
            err "@%s: %%%s expects a memref" name f.mem_names.(j))
    in
    match r.raised.(0) with
    | Some ex -> raise ex
    | None -> Array.to_list (Array.map (fun c -> c.(0)) r.results))

let prepare m name =
  match Mast.find_func m name with
  | None -> fun ~lanes:_ _ -> err "no function @%s in module" name
  | Some f ->
    fun ~lanes cols ->
      call name f ~arity:(Array.length cols) ~n:lanes ~bind:(fun st k param ->
          match param with
          | Mast.Index j -> st.s.(j) <- cols.(k)
          | Memref j -> err "@%s: %%%s expects a memref" name f.mem_names.(j))
