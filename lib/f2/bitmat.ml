type t = { rows : int; cols : int; col : int array }

let max_dim = Sys.int_size - 1

let check_dim what n =
  if n < 0 || n > max_dim then
    invalid_arg (Printf.sprintf "Bitmat: %s %d out of range 0..%d" what n max_dim)

let rows m = m.rows
let cols m = m.cols

let identity n =
  check_dim "size" n;
  { rows = n; cols = n; col = Array.init n (fun j -> 1 lsl j) }

let row_mask rows = if rows = 0 then 0 else (1 lsl rows) - 1

(* Index of the single set bit of a power of two. *)
let bit_index b =
  let k = ref 0 in
  let v = ref b in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

let of_cols ~rows cs =
  check_dim "rows" rows;
  let mask = row_mask rows in
  let col =
    Array.of_list
      (List.map
         (fun c ->
           if c land lnot mask <> 0 then
             invalid_arg "Bitmat.of_cols: column has bits outside the row range";
           c)
         cs)
  in
  check_dim "cols" (Array.length col);
  { rows; cols = Array.length col; col }

let of_fun ~rows ~cols f =
  check_dim "rows" rows;
  check_dim "cols" cols;
  let col =
    Array.init cols (fun j ->
        let c = ref 0 in
        for i = 0 to rows - 1 do
          if f i j then c := !c lor (1 lsl i)
        done;
        !c)
  in
  { rows; cols; col }

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Bitmat.col: column out of range";
  m.col.(j)

let get m i j =
  if i < 0 || i >= m.rows then invalid_arg "Bitmat.get: row out of range";
  col m j land (1 lsl i) <> 0

let apply m x =
  if x land lnot (row_mask m.cols) <> 0 then
    invalid_arg "Bitmat.apply: vector has bits outside the column range";
  let acc = ref 0 in
  let v = ref x in
  while !v <> 0 do
    let j = !v land - !v in
    acc := !acc lxor m.col.(bit_index j);
    v := !v lxor j
  done;
  !acc

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Bitmat.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  { rows = a.rows; cols = b.cols; col = Array.map (apply a) b.col }

let transpose m =
  of_fun ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)

let equal a b = a.rows = b.rows && a.cols = b.cols && a.col = b.col

(* Row-space form: each row as a bitmask over columns — the shape
   Gaussian elimination wants. *)
let to_rows m =
  let r = Array.make m.rows 0 in
  for j = 0 to m.cols - 1 do
    let v = ref m.col.(j) in
    while !v <> 0 do
      let bit = !v land - !v in
      let i = bit_index bit in
      r.(i) <- r.(i) lor (1 lsl j);
      v := !v lxor bit
    done
  done;
  r

let of_rows ~rows ~cols r =
  of_fun ~rows ~cols (fun i j -> r.(i) land (1 lsl j) <> 0)

(* Gauss-Jordan elimination over row bitmasks, pivoting on the lowest
   column first.  Returns the reduced rows (pivot rows first, in pivot
   order, zero rows after) and the pivot columns; [aug] rows are carried
   through the same operations (used by {!inverse}). *)
let eliminate ncols rws aug =
  let nr = Array.length rws in
  let pivots = ref [] in
  let filled = ref 0 in
  for c = 0 to ncols - 1 do
    (* Find a row at or below the frontier with bit [c] set. *)
    let p = ref (-1) in
    for i = !filled to nr - 1 do
      if !p < 0 && rws.(i) land (1 lsl c) <> 0 then p := i
    done;
    if !p >= 0 then begin
      let swap (a : int array) i j =
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      in
      swap rws !filled !p;
      swap aug !filled !p;
      for i = 0 to nr - 1 do
        if i <> !filled && rws.(i) land (1 lsl c) <> 0 then begin
          rws.(i) <- rws.(i) lxor rws.(!filled);
          aug.(i) <- aug.(i) lxor aug.(!filled)
        end
      done;
      pivots := c :: !pivots;
      incr filled
    end
  done;
  List.rev !pivots

let rank m =
  let rws = to_rows m in
  List.length (eliminate m.cols rws (Array.make m.rows 0))

let row_reduce m =
  let rws = to_rows m in
  ignore (eliminate m.cols rws (Array.make m.rows 0));
  of_rows ~rows:m.rows ~cols:m.cols rws

let inverse m =
  if m.rows <> m.cols then invalid_arg "Bitmat.inverse: matrix not square";
  let rws = to_rows m in
  let aug = Array.init m.rows (fun i -> 1 lsl i) in
  let pivots = eliminate m.cols rws aug in
  if List.length pivots <> m.rows then None
  else Some (of_rows ~rows:m.rows ~cols:m.cols aug)

let kernel m =
  let rws = to_rows m in
  let pivots = eliminate m.cols rws (Array.make m.rows 0) in
  let pivot_of = Array.make m.cols (-1) in
  List.iteri (fun r c -> pivot_of.(c) <- r) pivots;
  let basis = ref [] in
  for f = m.cols - 1 downto 0 do
    if pivot_of.(f) < 0 then begin
      (* Free column [f]: set x_f = 1 and solve each pivot row, which
         reads [x_pc = row_r land bit f] in reduced form. *)
      let v = ref (1 lsl f) in
      List.iteri
        (fun r pc -> if rws.(r) land (1 lsl f) <> 0 then v := !v lor (1 lsl pc))
        pivots;
      basis := !v :: !basis
    end
  done;
  !basis

let image m =
  (* Column space of [m] = row space of [mᵀ]; the reduced row-echelon
     rows of the transpose are the canonical basis. *)
  let t = transpose m in
  let rws = to_rows t in
  let n = List.length (eliminate t.cols rws (Array.make t.rows 0)) in
  List.init n (fun i -> rws.(i))

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    for j = 0 to m.cols - 1 do
      Format.pp_print_char ppf (if get m i j then '1' else '0')
    done
  done;
  Format.fprintf ppf "@]"
