module L = Lego_layout

let atom_name const_names = function
  | Cse.Avar v -> "%" ^ v
  | Cse.Aconst n -> Hashtbl.find const_names n

(* The first time a constant atom is met, emit its [arith.constant] at
   [pad] and name it [%c<n>] ([%cm<-n>] below 0); a variable needs
   nothing. *)
let intern_const b pad const_names = function
  | Cse.Avar _ -> ()
  | Cse.Aconst n ->
    if not (Hashtbl.mem const_names n) then begin
      let name =
        if n < 0 then Printf.sprintf "%%cm%d" (-n) else Printf.sprintf "%%c%d" n
      in
      Hashtbl.add const_names n name;
      Printf.bprintf b "%s%s = arith.constant %d : index\n" pad name n
    end

(* Emit the arith ops for [instrs] into [b], interning constants.
   Comparison results are i1 and may only feed selects; Cse's typing
   guarantees that for expressions built by the algebra. *)
let emit_instrs b ~indent const_names instrs =
  let pad = String.make indent ' ' in
  List.iter
    (fun i -> List.iter (intern_const b pad const_names) i.Cse.args)
    instrs;
  let name = atom_name const_names in
  List.iter
    (fun { Cse.dst; op; args } ->
      let line =
        match (op, args) with
        | Cse.Add, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.addi %s, %s : index" dst (name a)
            (name b')
        | Cse.Mul, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.muli %s, %s : index" dst (name a)
            (name b')
        | Cse.Divf, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.floordivsi %s, %s : index" dst (name a)
            (name b')
        | Cse.Rem, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.remsi %s, %s : index" dst (name a)
            (name b')
        | Cse.CmpLe, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.cmpi sle, %s, %s : index" dst (name a)
            (name b')
        | Cse.CmpLt, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.cmpi slt, %s, %s : index" dst (name a)
            (name b')
        | Cse.CmpEq, [ a; b' ] ->
          Printf.sprintf "%%%s = arith.cmpi eq, %s, %s : index" dst (name a)
            (name b')
        | Cse.Sel, [ c; a; b' ] ->
          Printf.sprintf "%%%s = arith.select %s, %s, %s : index" dst (name c)
            (name a) (name b')
        | Cse.Isqrt, [ a ] ->
          Printf.sprintf "%%%s = lego.isqrt %s : index" dst (name a)
        | _ -> invalid_arg "Mlir_gen: malformed instruction"
      in
      Buffer.add_string b (pad ^ line ^ "\n"))
    instrs

let index_func ~name ~params exprs =
  let b = Buffer.create 1024 in
  let instrs, results = Cse.lower exprs in
  let const_names = Hashtbl.create 16 in
  Buffer.add_string b "module {\n";
  Buffer.add_string b
    (Printf.sprintf "  func.func @%s(%s) -> (%s) {\n" name
       (String.concat ", " (List.map (fun p -> "%" ^ p ^ ": index") params))
       (String.concat ", " (List.map (fun _ -> "index") results)));
  (* Roots that are plain constants still need materialization. *)
  List.iter (intern_const b "    " const_names) results;
  emit_instrs b ~indent:4 const_names instrs;
  Buffer.add_string b
    (Printf.sprintf "    return %s : %s\n"
       (String.concat ", " (List.map (atom_name const_names) results))
       (String.concat ", " (List.map (fun _ -> "index") results)));
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let layout_apply_func ~name layout =
  let d = L.Group_by.rank layout in
  let params = List.init d (Printf.sprintf "i%d") in
  index_func ~name ~params [ Lego_symbolic.Sym.apply layout ]

let layout_inv_func ~name layout =
  index_func ~name ~params:[ "p" ] (Lego_symbolic.Sym.inv layout)

let copy_func ~name ~src_offset ~dst_offset ~dims =
  let b = Buffer.create 2048 in
  let d = List.length dims in
  let instrs, results = Cse.lower [ src_offset; dst_offset ] in
  let const_names = Hashtbl.create 16 in
  Buffer.add_string b "module {\n";
  Buffer.add_string b
    (Printf.sprintf
       "  func.func @%s(%%src: memref<?xindex>, %%dst: memref<?xindex>) {\n"
       name);
  (* Loop-bound and step constants. *)
  List.iter
    (fun n -> intern_const b "    " const_names (Cse.Aconst n))
    (0 :: 1 :: dims);
  let rec loops k indent =
    let pad = String.make indent ' ' in
    if k = d then begin
      emit_instrs b ~indent const_names instrs;
      let src, dst =
        match results with [ s; t ] -> (s, t) | _ -> assert false
      in
      Buffer.add_string b
        (Printf.sprintf "%s%%v = memref.load %%src[%s] : memref<?xindex>\n" pad
           (atom_name const_names src));
      Buffer.add_string b
        (Printf.sprintf "%smemref.store %%v, %%dst[%s] : memref<?xindex>\n" pad
           (atom_name const_names dst))
    end
    else begin
      Buffer.add_string b
        (Printf.sprintf "%sscf.for %%i%d = %%c0 to %s step %%c1 {\n" pad k
           (Hashtbl.find const_names (List.nth dims k)));
      loops (k + 1) (indent + 2);
      Buffer.add_string b (pad ^ "}\n")
    end
  in
  loops 0 4;
  Buffer.add_string b "    return\n  }\n}\n";
  Buffer.contents b
