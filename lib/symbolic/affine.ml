module L = Lego_layout

type t = { offset : int; dims : (int * int) list }

let linearize ~vars (e : Expr.t) =
  let exception Not_affine in
  let coeffs = Hashtbl.create 8 in
  let offset = ref 0 in
  let add_var v c =
    if not (List.mem v vars) then raise Not_affine;
    Hashtbl.replace coeffs v (c + Option.value ~default:0 (Hashtbl.find_opt coeffs v))
  in
  let add_term t =
    match Expr.as_linear_term t with
    | c, [] -> offset := !offset + c
    | c, [ { node = Expr.Var v; _ } ] -> add_var v c
    | _ -> raise Not_affine
  in
  match
    (match e.node with
    | Expr.Add ts -> List.iter add_term ts
    | _ -> add_term e)
  with
  | () ->
    Some (!offset, List.map (fun v -> (v, Option.value ~default:0 (Hashtbl.find_opt coeffs v))) vars)
  | exception Not_affine -> None

let of_layout g =
  let dims = L.Group_by.dims g in
  let e = Sym.apply g in
  let vars = List.mapi (fun k _ -> Printf.sprintf "i%d" k) dims in
  match linearize ~vars e with
  | None -> None
  | Some (offset, coeffs) ->
    Some { offset; dims = List.map2 (fun n (_, c) -> (n, c)) dims coeffs }

let check g t =
  let dims = L.Group_by.dims g in
  if List.map fst t.dims <> dims then Error "stride table has the wrong shape"
  else begin
    let bad = ref None in
    Seq.iter
      (fun idx ->
        if !bad = None then begin
          let predicted =
            t.offset
            + List.fold_left2 (fun acc i (_, s) -> acc + (i * s)) 0 idx t.dims
          in
          let actual = L.Group_by.apply_ints g idx in
          if predicted <> actual then bad := Some (idx, predicted, actual)
        end)
      (L.Shape.indices dims);
    match !bad with
    | None -> Ok ()
    | Some (idx, predicted, actual) ->
      Error
        (Printf.sprintf "strides predict %d at [%s], layout says %d" predicted
           (String.concat ", " (List.map string_of_int idx))
           actual)
  end

let to_cute t =
  let shapes = List.map (fun (n, _) -> string_of_int n) t.dims in
  let strides = List.map (fun (_, s) -> string_of_int s) t.dims in
  let base =
    Printf.sprintf "(%s):(%s)"
      (String.concat ", " shapes)
      (String.concat ", " strides)
  in
  if t.offset = 0 then base else Printf.sprintf "%s + %d" base t.offset

let pp ppf t = Format.pp_print_string ppf (to_cute t)
