module E = Lego_symbolic.Expr
module R = Lego_symbolic.Range
module L = Lego_layout

type index = Fix of E.t | All

let arange_var k = Printf.sprintf "__arange%d" k

let syntax =
  {
    E.mul = " * ";
    div = " // ";
    select = `Call "tl.where";
    isqrt = ("tl.sqrt(", ").to(tl.int32)");
  }

let expr e = E.render syntax e

(* Assign arange variables to the [`All] positions, mirroring
   [slice_offset]'s numbering, and return the per-position component
   expressions plus the (var, extent) slice bindings in order. *)
let components_of indices dims =
  let slice_count = ref 0 in
  let components, slice_info =
    List.fold_left2
      (fun (components, info) index extent ->
        match index with
        | Fix e -> (e :: components, info)
        | All ->
          let k = !slice_count in
          incr slice_count;
          let v = arange_var k in
          (E.var v :: components, (v, extent) :: info))
      ([], []) indices dims
  in
  (List.rev components, List.rev slice_info)

let broadcast ~nslices k =
  if nslices = 1 then "" else if k = 0 then "[:, None]" else "[None, :]"

(* Literal substring replacement (the arange variables are generated
   names, so no overlap subtleties arise). *)
let replace_all ~sub ~by text =
  let sn = String.length sub and n = String.length text in
  if sn = 0 then text
  else begin
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i <= n - sn do
      if String.sub text !i sn = sub then begin
        Buffer.add_string buf by;
        i := !i + sn
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    Buffer.add_string buf (String.sub text !i (n - !i));
    Buffer.contents buf
  end

let render_with_aranges ~slice_info text =
  let nslices = List.length slice_info in
  List.fold_left
    (fun text (k, (v, extent)) ->
      replace_all ~sub:v
        ~by:(Printf.sprintf "tl.arange(0, %d)%s" extent (broadcast ~nslices k))
        text)
    text
    (List.mapi (fun k b -> (k, b)) slice_info)

let slice_mask ~group ~extents indices =
  let dims = List.concat group in
  if List.length indices <> List.length dims then
    invalid_arg "Triton_printer.slice_mask: index rank mismatch";
  let d = List.length extents in
  List.iter
    (fun level ->
      if List.length level <> d then
        invalid_arg "Triton_printer.slice_mask: level rank mismatch")
    group;
  let components, slice_info = components_of indices dims in
  if List.length slice_info > 2 then
    invalid_arg
      "Triton_printer.slice_mask: at most two sliced dimensions supported";
  let env =
    List.fold_left
      (fun env (v, extent) -> R.env_add v (R.of_extent extent) env)
      R.empty_env slice_info
  in
  let q = List.length group in
  (* Random access below runs per dimension inside the guard loop;
     arrays keep it linear in the rank where [List.nth] in those loops
     was quadratic. *)
  let group_a = Array.of_list (List.map Array.of_list group) in
  let components_a = Array.of_list components in
  let extents_a = Array.of_list extents in
  (* Global coordinate of dimension k: the canonical flattening of its
     per-level components. *)
  let coord k =
    let level_extents =
      List.init q (fun h -> group_a.(h).(k))
    in
    let level_components = List.init q (fun h -> components_a.((h * d) + k)) in
    Lego_layout.Shape.flatten
      (module Lego_symbolic.Sym.Dom)
      level_extents level_components
  in
  let terms =
    List.filteri
      (fun k _ ->
        let padded_extent =
          Array.fold_left (fun acc level -> acc * level.(k)) 1 group_a
        in
        padded_extent > extents_a.(k))
      (List.init d Fun.id)
    |> List.map (fun k ->
           let guard =
             Lego_symbolic.Simplify.simplify ~env
               (E.lt (coord k) (E.const extents_a.(k)))
           in
           "(" ^ expr guard ^ ")")
  in
  match terms with
  | [] -> None
  | terms ->
    Some (render_with_aranges ~slice_info (String.concat " & " terms))

let slice_offset ?(env = R.empty_env) layout indices =
  let dims = L.Group_by.dims layout in
  if List.length indices <> List.length dims then
    invalid_arg "Triton_printer.slice_offset: index rank mismatch";
  let components, slice_info = components_of indices dims in
  if List.length slice_info > 2 then
    invalid_arg
      "Triton_printer.slice_offset: at most two sliced dimensions supported";
  let env =
    List.fold_left
      (fun env (v, extent) -> R.env_add v (R.of_extent extent) env)
      env slice_info
  in
  let offset =
    Lego_symbolic.Simplify.simplify ~env
      (L.Group_by.apply (module Lego_symbolic.Sym.Dom) layout components)
  in
  (* Synthetic names are unique words; plain textual substitution is safe
     because they cannot occur in user variables. *)
  render_with_aranges ~slice_info (expr offset)
