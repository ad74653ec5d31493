(* Reference implementations kept as differential oracles: the library's
   direct layout printers, O(n) warp-access counters, staged static
   scorer, DAG renderer, exact-size renderer, constant-bound prover
   goals, prepared evaluator and slot-indexed MLIR interpreter replaced
   these, and the tests assert the replacements agree with them byte
   for byte, verdict for verdict, count for count and exception for
   exception.  The F₂ swizzle-class partition is the reference the class
   tests check the tuner's swizzle coverage against, the three-address
   interpreter checks [Cse.lower]'s output, and the print-and-MD5
   candidate stream checks the tuner's (stage, base) pairs. *)

module L = Lego_layout
module G = Lego_gpusim
module P = Lego_tune.Predict

(* ---- Format-based layout printers --------------------------------------- *)

let pp_list pp =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp

let pp_ints ppf l = Format.fprintf ppf "[%a]" (pp_list Format.pp_print_int) l
let pp_sigma ppf s = pp_ints ppf (L.Sigma.to_one_based s)

let pp_piece ppf = function
  | L.Piece.Gen { dims; name; _ } ->
    Format.fprintf ppf "GenP(%s%a)" name pp_ints dims
  | L.Piece.Reg { dims; sigma } ->
    Format.fprintf ppf "RegP(%a, %a)" pp_ints dims pp_sigma sigma

(* The subscript is the shared rank of the parts, when there is one. *)
let suffix ranks =
  match List.sort_uniq Int.compare ranks with
  | [ d ] -> string_of_int d
  | _ -> ""

let pp_order_by ppf o =
  let t = L.Order_by.pieces o in
  Format.fprintf ppf "OrderBy%s(%a)"
    (suffix (List.map L.Piece.rank t))
    (pp_list pp_piece) t

let pp_group_by ppf g =
  List.iter
    (fun o -> Format.fprintf ppf "%a." pp_order_by o)
    (L.Group_by.chain g);
  let shapes = L.Group_by.shapes g in
  Format.fprintf ppf "GroupBy%s(%a)"
    (suffix (List.map L.Shape.rank shapes))
    (pp_list pp_ints) shapes

(* One formatter per printer, reused across calls: [Format.asprintf]
   builds a fresh formatter each time, which dominates printing a
   stream of 10^5 layouts. *)
let to_string pp =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  fun x ->
    Buffer.clear buf;
    pp ppf x;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

let piece_to_string = to_string pp_piece
let order_by_to_string = to_string pp_order_by
let group_by_to_string = to_string pp_group_by

(* ---- Quadratic-scan warp-access counters -------------------------------- *)

let pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let k = ref 0 and v = ref x in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Distinct words by scanning the words seen so far; the per-bank
   degree array is indexed with bounds checks, so a negative word's
   negative remainder raises [Invalid_argument]. *)
let bank_cycles_arr (device : G.Device.t) ~elem_bytes addrs n =
  let nbanks = device.smem_banks and bb = device.smem_bank_bytes in
  let shift = if pow2 bb then log2 bb else -1 in
  let bmask = if pow2 nbanks then nbanks - 1 else -1 in
  let words = Array.make device.warp_size 0 in
  let degree = Array.make nbanks 0 in
  let nw = ref 0 in
  for k = 0 to n - 1 do
    let b = addrs.(k) * elem_bytes in
    let word = if shift >= 0 && b >= 0 then b lsr shift else b / bb in
    let dup = ref false in
    for i = 0 to !nw - 1 do
      if words.(i) = word then dup := true
    done;
    if not !dup then begin
      if !nw >= Array.length words then invalid_arg "Access: batch > warp";
      words.(!nw) <- word;
      incr nw;
      let bank =
        if bmask >= 0 && word >= 0 then word land bmask else word mod nbanks
      in
      degree.(bank) <- degree.(bank) + 1
    end
  done;
  Array.fold_left max 1 degree

let txn_count_arr (device : G.Device.t) ~elem_bytes addrs n =
  let tb = device.global_txn_bytes in
  let shift = if pow2 tb then log2 tb else -1 in
  let segs = Array.make device.warp_size 0 in
  let ns = ref 0 in
  for k = 0 to n - 1 do
    let b = addrs.(k) * elem_bytes in
    let seg = if shift >= 0 && b >= 0 then b lsr shift else b / tb in
    let dup = ref false in
    for i = 0 to !ns - 1 do
      if segs.(i) = seg then dup := true
    done;
    if not !dup then begin
      if !ns >= Array.length segs then invalid_arg "Access: batch > warp";
      segs.(!ns) <- seg;
      incr ns
    end
  done;
  !ns

(* ---- Static scorers ----------------------------------------------------- *)

let lanes_of (device : G.Device.t) f =
  List.filter_map f (List.init device.warp_size Fun.id)

(* Sum one phase at a time: [shared] returns a non-empty shared phase's
   bank cycles, [global] a non-empty global phase's transactions. *)
let fold_phases ~device ~ops ~shared ~global phases =
  List.fold_left
    (fun (acc : P.score) phase ->
      match phase with
      | P.Shared { elem_bytes; lanes } -> (
        match lanes_of device lanes with
        | [] -> acc
        | idxs ->
          {
            acc with
            smem_phases = acc.smem_phases + 1;
            smem_accesses = acc.smem_accesses + List.length idxs;
            smem_cycles = acc.smem_cycles + shared ~elem_bytes idxs;
          })
      | P.Global { elem_bytes; addrs } -> (
        match lanes_of device addrs with
        | [] -> acc
        | addrs ->
          { acc with gmem_txns = acc.gmem_txns + global ~elem_bytes addrs }))
    { P.smem_phases = 0; smem_accesses = 0; smem_cycles = 0; gmem_txns = 0; ops }
    phases

(* {!Lego_tune.Predict.score} by direct interpretation: every active
   lane's address through [Group_by.apply_ints], counted with the
   simulator's own [Access] arithmetic. *)
let interpret_score ?(device = G.Device.a100) ?ops g phases =
  let ops = match ops with Some n -> n | None -> P.decomposed_ops g in
  fold_phases ~device ~ops phases
    ~shared:(fun ~elem_bytes idxs ->
      G.Access.bank_cycles device ~elem_bytes
        (List.map (L.Group_by.apply_ints g) idxs))
    ~global:(fun ~elem_bytes addrs -> G.Access.txn_count device ~elem_bytes addrs)

(* The F₂ closed form of {!Lego_tune.Predict.score} on an affine-linear
   candidate ([None] otherwise).  A full-warp phase whose lane map is
   affine composes with the candidate's matrix and reads its conflict
   multiplicity off two ranks, and a full affine global warp counts
   [2^rank] segments ({!Oracle}); any other phase evaluates the
   candidate through its matrix and counts with [Access], so the score
   is exact in every case. *)
let closed_form_score ?(device = G.Device.a100) ?ops g phases =
  match Lego_f2.Linear.of_layout g with
  | None -> None
  | Some lin ->
    let ops = match ops with Some n -> n | None -> P.decomposed_ops g in
    let affine addrs =
      if List.length addrs = device.warp_size then
        Oracle.of_lanes (Array.of_list addrs)
      else None
    in
    let dims = L.Group_by.dims g in
    Some
      (fold_phases ~device ~ops phases
         ~shared:(fun ~elem_bytes idxs ->
           let flats = List.map (L.Shape.flatten_ints dims) idxs in
           match
             Option.bind (affine flats) (fun lane ->
                 Oracle.bank_cycles ~nbanks:device.smem_banks
                   ~bank_bytes:device.smem_bank_bytes ~elem_bytes
                   (fst (Oracle.compose_warp lin lane)))
           with
           | Some c -> c
           | None ->
             G.Access.bank_cycles device ~elem_bytes
               (List.map (Lego_f2.Linear.apply lin) flats))
         ~global:(fun ~elem_bytes addrs ->
           match
             Option.bind (affine addrs) (fun (a, _) ->
                 Oracle.txn_count ~txn_bytes:device.global_txn_bytes
                   ~elem_bytes a)
           with
           | Some t -> t
           | None -> G.Access.txn_count device ~elem_bytes addrs))

(* ---- F₂ cost-equivalence classes of the masked-swizzle family --------- *)

(* Bank geometry shared by every device preset: 32 banks of 4-byte
   words, 32-lane warps.  The class key only needs the word size and the
   warp width. *)
let bank_bytes = 4
let warp_lanes = 32

(* The number of bits indexing [0 .. n-1]. *)
let num_bits n = if n <= 1 then 0 else log2 (n - 1) + 1

type swizzle_class = {
  sw_mask : int;  (* canonical representative: the (shift, mask)- *)
  sw_shift : int;  (* lexicographic minimum of the class *)
  sw_members : (int * int) list;  (* shift-major ascending, rep first *)
}

(* Provable cost-equivalence classes of the masked-swizzle family over
   GF(2) (DESIGN.md section 12).  The swizzle xors [key(i) = (i >> shift)
   land mask] into the column bits; as an F₂ map [K] from row bits to
   column bits, only the rows of [K] that reach a distinct bank {e word}
   matter — key bits below [log2 (bank_bytes / elem_bytes)] land in
   sub-word address bits and cannot change any bank or transaction count.
   Two members with the same pair of images

     (im K̃ restricted to the warp-sweep lane bits,  im K̃)

   differ by an invertible change of row-space basis that fixes the lane
   subspace — a relabeling of which row activates which key, under which
   every warp sweep (full-row phases are key-independent; full-column
   phases see the same rank, hence the same coset multiplicity) costs
   identically.  The key [(0, 0)] is the trivial class: no word-relevant
   key bit, so its members cost what the unswizzled base costs. *)
let swizzle_class_key ~rows ~cols ~elem_bytes (mask, shift) =
  let rbits = log2 rows and vbits = min (log2 rows) (log2 warp_lanes) in
  let wshift = max 0 (log2 bank_bytes - log2 elem_bytes) in
  let im limit =
    let acc = ref 0 in
    for b = wshift to log2 cols - 1 do
      if mask land (1 lsl b) <> 0 && b + shift < limit then
        acc := !acc lor (1 lsl b)
    done;
    !acc
  in
  (im vbits, im rbits)

let popcount x =
  let c = ref 0 and v = ref x in
  while !v <> 0 do
    incr c;
    v := !v land (!v - 1)
  done;
  !c

(* The full mask/shift grid ({!Lego_tune.Space.swizzle_family})
   partitioned by {!swizzle_class_key}; highest warp-image rank (fewest
   conflicts) first, then highest full rank, then canonical
   representative.  Empty unless [rows], [cols] and [elem_bytes] are
   powers of two with [cols > 1]. *)
let swizzle_classes ~rows ~cols ~elem_bytes =
  if (not (pow2 cols)) || cols = 1 || (not (pow2 rows)) || not (pow2 elem_bytes)
  then []
  else begin
    (* Iterate shifts-then-masks ascending: the first member of each
       class is its lexicographic (shift, mask) minimum. *)
    let members = Hashtbl.create 64 in
    let keys = ref [] in
    for shift = 0 to max 1 (num_bits rows) - 1 do
      for mask = 0 to cols - 1 do
        let key = swizzle_class_key ~rows ~cols ~elem_bytes (mask, shift) in
        if not (Hashtbl.mem members key) then keys := key :: !keys;
        Hashtbl.add members key (mask, shift)
      done
    done;
    let classes =
      List.rev_map
        (fun key ->
          let ms = List.rev (Hashtbl.find_all members key) in
          let mask, shift = List.hd ms in
          (key, { sw_mask = mask; sw_shift = shift; sw_members = ms }))
        !keys
    in
    List.map snd
      (List.stable_sort
         (fun ((v1, f1), c1) ((v2, f2), c2) ->
           let c = compare (popcount v2) (popcount v1) in
           if c <> 0 then c
           else
             let c = compare (popcount f2) (popcount f1) in
             if c <> 0 then c
             else compare (c1.sw_shift, c1.sw_mask) (c2.sw_shift, c2.sw_mask))
         classes)
  end

(* One representative per non-trivial class: the swizzles the tuner's
   former class mode prepended to every swizzle-free candidate. *)
let class_representatives ~rows ~cols ~elem_bytes =
  List.filter_map
    (fun c ->
      let key = swizzle_class_key ~rows ~cols ~elem_bytes in
      if key (c.sw_mask, c.sw_shift) = (0, 0) then None
      else Some (c.sw_mask, c.sw_shift))
    (swizzle_classes ~rows ~cols ~elem_bytes)

(* ---- Tree walks over index expressions --------------------------------- *)

(* These walk the expression as a tree, so a node that recurs is
   printed or evaluated once per occurrence: exponential in depth on a
   deeply shared expression.  Keep their inputs small. *)

module E = Lego_symbolic.Expr

(* [Expr.pp]: C-like precedence, a sum's first summand at precedence 5. *)
let rec expr_pp_prec prec ppf (e : E.t) =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e.node with
  | Const n ->
    if n < 0 then paren 10 (fun ppf -> Format.fprintf ppf "%d" n)
    else Format.fprintf ppf "%d" n
  | Var v -> Format.pp_print_string ppf v
  | Add xs ->
    paren 4 (fun ppf ->
        List.iteri
          (fun k x ->
            if k > 0 then
              match E.as_linear_term x with
              | c, factors when c < 0 ->
                Format.fprintf ppf " - %a" (expr_pp_prec 5)
                  (E.of_linear_term (-c, factors))
              | _ -> Format.fprintf ppf " + %a" (expr_pp_prec 5) x
            else expr_pp_prec 5 ppf x)
          xs)
  | Mul xs ->
    paren 5 (fun ppf ->
        List.iteri
          (fun k x ->
            if k > 0 then Format.fprintf ppf "*%a" (expr_pp_prec 6) x
            else expr_pp_prec 6 ppf x)
          xs)
  | Div (a, b) ->
    paren 5 (fun ppf ->
        Format.fprintf ppf "%a / %a" (expr_pp_prec 5) a (expr_pp_prec 6) b)
  | Mod (a, b) ->
    paren 5 (fun ppf ->
        Format.fprintf ppf "%a %% %a" (expr_pp_prec 5) a (expr_pp_prec 6) b)
  | Select (c, a, b) ->
    paren 1 (fun ppf ->
        Format.fprintf ppf "%a ? %a : %a" (expr_pp_prec 2) c (expr_pp_prec 2)
          a (expr_pp_prec 1) b)
  | Le (a, b) ->
    paren 3 (fun ppf ->
        Format.fprintf ppf "%a <= %a" (expr_pp_prec 4) a (expr_pp_prec 4) b)
  | Lt (a, b) ->
    paren 3 (fun ppf ->
        Format.fprintf ppf "%a < %a" (expr_pp_prec 4) a (expr_pp_prec 4) b)
  | Eq (a, b) ->
    paren 3 (fun ppf ->
        Format.fprintf ppf "%a == %a" (expr_pp_prec 4) a (expr_pp_prec 4) b)
  | Isqrt a -> Format.fprintf ppf "isqrt(%a)" (expr_pp_prec 0) a

let expr_to_string e = Format.asprintf "%a" (expr_pp_prec 0) e

(* [C_printer.expr]: a sum's first summand at precedence 4. *)
let rec c_pr prec (e : E.t) =
  let paren p s = if prec > p then "(" ^ s ^ ")" else s in
  match e.node with
  | Const n -> if n < 0 then paren 10 (string_of_int n) else string_of_int n
  | Var v -> v
  | Add xs ->
    paren 4
      (String.concat ""
         (List.mapi
            (fun k x ->
              if k = 0 then c_pr 4 x
              else
                match E.as_linear_term x with
                | c, fs when c < 0 -> " - " ^ c_pr 5 (E.of_linear_term (-c, fs))
                | _ -> " + " ^ c_pr 5 x)
            xs))
  | Mul xs -> paren 5 (String.concat " * " (List.map (c_pr 6) xs))
  | Div (a, b) -> paren 5 (c_pr 5 a ^ " / " ^ c_pr 6 b)
  | Mod (a, b) -> paren 5 (c_pr 5 a ^ " % " ^ c_pr 6 b)
  | Select (c, a, b) -> paren 1 (c_pr 2 c ^ " ? " ^ c_pr 2 a ^ " : " ^ c_pr 1 b)
  | Le (a, b) -> paren 3 (c_pr 4 a ^ " <= " ^ c_pr 4 b)
  | Lt (a, b) -> paren 3 (c_pr 4 a ^ " < " ^ c_pr 4 b)
  | Eq (a, b) -> paren 3 (c_pr 4 a ^ " == " ^ c_pr 4 b)
  | Isqrt a -> "lego_isqrt(" ^ c_pr 0 a ^ ")"

let c_expr e = c_pr 0 e

(* [Triton_printer.expr]. *)
let rec triton_pr prec (e : E.t) =
  let paren p s = if prec > p then "(" ^ s ^ ")" else s in
  match e.node with
  | Const n -> if n < 0 then paren 10 (string_of_int n) else string_of_int n
  | Var v -> v
  | Add xs ->
    paren 4
      (String.concat ""
         (List.mapi
            (fun k x ->
              if k = 0 then triton_pr 4 x
              else
                match E.as_linear_term x with
                | c, fs when c < 0 ->
                  " - " ^ triton_pr 5 (E.of_linear_term (-c, fs))
                | _ -> " + " ^ triton_pr 5 x)
            xs))
  | Mul xs -> paren 5 (String.concat " * " (List.map (triton_pr 6) xs))
  | Div (a, b) -> paren 5 (triton_pr 5 a ^ " // " ^ triton_pr 6 b)
  | Mod (a, b) -> paren 5 (triton_pr 5 a ^ " % " ^ triton_pr 6 b)
  | Select (c, a, b) ->
    paren 1
      ("tl.where(" ^ triton_pr 0 c ^ ", " ^ triton_pr 0 a ^ ", "
     ^ triton_pr 0 b ^ ")")
  | Le (a, b) -> paren 3 (triton_pr 4 a ^ " <= " ^ triton_pr 4 b)
  | Lt (a, b) -> paren 3 (triton_pr 4 a ^ " < " ^ triton_pr 4 b)
  | Eq (a, b) -> paren 3 (triton_pr 4 a ^ " == " ^ triton_pr 4 b)
  | Isqrt a -> "tl.sqrt(" ^ triton_pr 0 a ^ ").to(tl.int32)"

let triton_expr e = triton_pr 0 e

(* [Expr.eval]: a divisor before its dividend, only the taken branch of
   a select. *)
let rec eval ~env (e : E.t) =
  match e.node with
  | Const n -> n
  | Var v -> env v
  | Add xs -> List.fold_left (fun acc x -> acc + eval ~env x) 0 xs
  | Mul xs -> List.fold_left (fun acc x -> acc * eval ~env x) 1 xs
  | Div (a, b) ->
    let d = eval ~env b in
    if d = 0 then raise Division_by_zero;
    Lego_layout.Domain.floor_div (eval ~env a) d
  | Mod (a, b) ->
    let d = eval ~env b in
    if d = 0 then raise Division_by_zero;
    Lego_layout.Domain.floor_rem (eval ~env a) d
  | Select (c, a, b) -> if eval ~env c <> 0 then eval ~env a else eval ~env b
  | Le (a, b) -> if eval ~env a <= eval ~env b then 1 else 0
  | Lt (a, b) -> if eval ~env a < eval ~env b then 1 else 0
  | Eq (a, b) -> if eval ~env a = eval ~env b then 1 else 0
  | Isqrt a -> Lego_layout.Domain.int_isqrt (eval ~env a)

(* ---- Growing-buffer renderer and difference-building prover ------------- *)

(* [Expr.render] before it measured: each compound node's text written
   once into a buffer that doubles when full, later occurrences copied
   from the buffer, and the text copied out at the end. *)
type out = { mutable bytes : Bytes.t; mutable len : int }

let reserve o n =
  let cap = Bytes.length o.bytes in
  if o.len + n > cap then begin
    let bytes = Bytes.create (max (o.len + n) (2 * cap)) in
    Bytes.blit o.bytes 0 bytes 0 o.len;
    o.bytes <- bytes
  end

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.blit_string s 0 o.bytes o.len n;
  o.len <- o.len + n

let add_copy o off n =
  reserve o n;
  Bytes.blit o.bytes off o.bytes o.len n;
  o.len <- o.len + n

let level (e : E.t) =
  match e.node with
  | Select _ -> 1
  | Le _ | Lt _ | Eq _ -> 3
  | Add _ -> 4
  | Mul _ | Div _ | Mod _ -> 5
  | Const _ | Var _ | Isqrt _ -> max_int

let render (sx : E.syntax) e =
  let o = { bytes = Bytes.create 256; len = 0 } in
  let spans : (int * int) E.Tbl.t = E.Tbl.create 64 in
  let rec node prec (e : E.t) =
    match e.node with
    | Const n -> add_string o (string_of_int n)
    | Var v -> add_string o v
    | _ ->
      let wrap = prec > level e in
      if wrap then add_string o "(";
      (match E.Tbl.find_opt spans e with
      | Some (off, n) -> add_copy o off n
      | None ->
        let off = o.len in
        body e;
        E.Tbl.add spans e (off, o.len - off));
      if wrap then add_string o ")"
  and binary a op b ~left ~right =
    node left a;
    add_string o op;
    node right b
  and body (e : E.t) =
    match e.node with
    | Const _ | Var _ -> node 0 e
    | Add [] | Mul [] -> ()
    | Add (x :: xs) ->
      node 5 x;
      List.iter
        (fun x ->
          match E.as_linear_term x with
          | c, factors when c < 0 ->
            add_string o " - ";
            node 5 (E.of_linear_term (-c, factors))
          | _ ->
            add_string o " + ";
            node 5 x)
        xs
    | Mul (x :: xs) ->
      node 6 x;
      List.iter
        (fun x ->
          add_string o sx.mul;
          node 6 x)
        xs
    | Div (a, b) -> binary a sx.div b ~left:5 ~right:6
    | Mod (a, b) -> binary a " % " b ~left:5 ~right:6
    | Select (c, a, b) -> (
      match sx.select with
      | `Ternary ->
        node 2 c;
        add_string o " ? ";
        binary a " : " b ~left:2 ~right:1
      | `Call f ->
        add_string o f;
        add_string o "(";
        node 0 c;
        add_string o ", ";
        binary a ", " b ~left:0 ~right:0;
        add_string o ")")
    | Le (a, b) -> binary a " <= " b ~left:4 ~right:4
    | Lt (a, b) -> binary a " < " b ~left:4 ~right:4
    | Eq (a, b) -> binary a " == " b ~left:4 ~right:4
    | Isqrt a ->
      add_string o (fst sx.isqrt);
      node 0 a;
      add_string o (snd sx.isqrt)
  in
  node 0 e;
  Bytes.sub_string o.bytes 0 o.len

module Range = Lego_symbolic.Range

(* [Prover.le]/[lt] before they read intervals against a constant: build
   the normalized difference [b - a] or [b - (a + 1)], so common terms
   cancel, and read its interval's lower bound. *)
let prover_le env a b = (Range.of_expr env (E.sub b a)).lo >= 0
let prover_lt env a b = (Range.of_expr env (E.sub b (E.add a E.one))).lo >= 0

(* ---- Three-address and MLIR interpreters -------------------------------- *)

module Cse = Lego_codegen.Cse
module Mast = Lego_mlirsim.Mast
module Mi = Lego_mlirsim.Minterp

(* [Cse.eval]: every instruction in order, each value in a table under
   its name; free variables come from [env]. *)
let cse_eval ~env (instrs : Cse.instr list) roots =
  let values = Hashtbl.create 64 in
  let atom = function
    | Cse.Aconst n -> n
    | Cse.Avar v -> (
      match Hashtbl.find_opt values v with Some n -> n | None -> env v)
  in
  List.iter
    (fun { Cse.dst; op; args } ->
      let a = List.map atom args in
      let v =
        match (op, a) with
        | Add, [ x; y ] -> x + y
        | Mul, [ x; y ] -> x * y
        | Divf, [ x; y ] -> Lego_layout.Domain.floor_div x y
        | Rem, [ x; y ] -> Lego_layout.Domain.floor_rem x y
        | CmpLe, [ x; y ] -> if x <= y then 1 else 0
        | CmpLt, [ x; y ] -> if x < y then 1 else 0
        | CmpEq, [ x; y ] -> if x = y then 1 else 0
        | Sel, [ c; x; y ] -> if c <> 0 then x else y
        | Isqrt, [ x ] -> Lego_layout.Domain.int_isqrt x
        | _ -> invalid_arg "Reference.cse_eval: arity mismatch"
      in
      Hashtbl.replace values dst v)
    instrs;
  List.map atom roots

(* [Minterp.run_func] as it was before slots: every SSA value in a
   string-keyed table, looked up by name at each use.  The names come
   back from the function's slot-to-name arrays. *)
exception Returned of int list

let mlir_err fmt = Printf.ksprintf (fun s -> raise (Mi.Runtime_error s)) fmt

let run_mlir_func (m : Mast.modul) name args =
  match Mast.find_func m name with
  | None -> mlir_err "no function @%s in module" name
  | Some f ->
    let index k = f.Mast.index_names.(k) and memref k = f.Mast.mem_names.(k) in
    let env : (string, Mi.value) Hashtbl.t = Hashtbl.create 64 in
    let lookup name =
      match Hashtbl.find_opt env name with
      | Some v -> v
      | None -> mlir_err "unbound SSA value %%%s" name
    in
    let int_of k =
      match lookup (index k) with
      | Int n -> n
      | Mem _ -> mlir_err "%%%s is a memref, expected an index" (index k)
    in
    let mem_of k =
      match lookup (memref k) with
      | Mem a -> a
      | Int _ -> mlir_err "%%%s is an index, expected a memref" (memref k)
    in
    let set k v = Hashtbl.replace env (index k) (Mi.Int v) in
    let rec exec_op (op : Mast.op) =
      match op with
      | Constant { dst; value } -> set dst value
      | Binop { dst; kind; lhs; rhs } ->
        let a = int_of lhs and b = int_of rhs in
        set dst
          (match kind with
          | Add -> a + b
          | Mul -> a * b
          | FloorDiv ->
            if b = 0 then raise Division_by_zero
            else Lego_layout.Domain.floor_div a b
          | Rem ->
            if b = 0 then raise Division_by_zero
            else Lego_layout.Domain.floor_rem a b)
      | Cmpi { dst; kind; lhs; rhs } ->
        let a = int_of lhs and b = int_of rhs in
        set dst
          (Bool.to_int
             (match kind with Le -> a <= b | Lt -> a < b | Eq -> a = b))
      | Select { dst; cond; if_true; if_false } ->
        set dst (int_of (if int_of cond <> 0 then if_true else if_false))
      | Isqrt { dst; arg } ->
        set dst (Lego_layout.Domain.int_isqrt (int_of arg))
      | Load { dst; mem; idx } ->
        let a = mem_of mem and i = int_of idx in
        if i < 0 || i >= Array.length a then
          mlir_err "load out of bounds: %%%s[%d] (size %d)" (memref mem) i
            (Array.length a);
        set dst a.(i)
      | Store { value; mem; idx } ->
        let a = mem_of mem and i = int_of idx in
        if i < 0 || i >= Array.length a then
          mlir_err "store out of bounds: %%%s[%d] (size %d)" (memref mem) i
            (Array.length a);
        a.(i) <- int_of value
      | For { var; lb; ub; step; body } ->
        let lb = int_of lb and ub = int_of ub and step = int_of step in
        if step <= 0 then mlir_err "scf.for with non-positive step %d" step;
        let i = ref lb in
        while !i < ub do
          set var !i;
          List.iter exec_op body;
          i := !i + step
        done
      | Return slots -> raise (Returned (List.map int_of slots))
    in
    if List.length args <> List.length f.params then
      mlir_err "@%s expects %d arguments, got %d" name (List.length f.params)
        (List.length args);
    List.iter2
      (fun (param : Mast.slot) (arg : Mi.value) ->
        match (param, arg) with
        | Index k, Int _ -> Hashtbl.replace env (index k) arg
        | Memref k, Mem _ -> Hashtbl.replace env (memref k) arg
        | Index k, Mem _ -> mlir_err "@%s: %%%s expects an index" name (index k)
        | Memref k, Int _ ->
          mlir_err "@%s: %%%s expects a memref" name (memref k))
      f.params args;
    (try
       List.iter exec_op f.body;
       []
     with Returned vs -> vs)

(* ---- Print-and-MD5 candidate stream -------------------------------------- *)

(* The tuner's candidate stream as it was before candidates became
   (stage, base) pairs: every candidate's text assembled as its stage's
   text followed by its base's, and the stream deduplicated by the MD5
   of that text.  [Lego_tune.Space.candidates] must hand out the same
   texts and layouts, element for element. *)
module Legacy_space = struct
  type t = { rows : int; cols : int; seed : int; composed : bool; scale : bool }

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let log2 n =
    let k = ref 0 in
    let v = ref n in
    while !v > 1 do
      incr k;
      v := !v lsr 1
    done;
    !k

  let view2 sp chain = L.Group_by.make ~chain [ [ sp.rows; sp.cols ] ]

  let of_piece sp p = view2 sp [ L.Order_by.make [ p ] ]

  let shuffle sp ~tag xs =
    if sp.seed = 0 then xs
    else begin
      let st = Random.State.make [| sp.seed; Hashtbl.hash tag |] in
      let arr = Array.of_list xs in
      for i = Array.length arr - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      Array.to_list arr
    end

  let has_gen g =
    List.exists
      (fun o ->
        List.exists
          (function L.Piece.Gen _ -> true | L.Piece.Reg _ -> false)
          (L.Order_by.pieces o))
      (L.Group_by.chain g)

  let sigma_roots sp =
    List.map
      (fun sigma ->
        of_piece sp (L.Piece.reg ~dims:[ sp.rows; sp.cols ] ~sigma))
      (L.Sigma.all 2)

  let gallery_roots sp =
    let square = sp.rows = sp.cols in
    let pow2 = square && is_pow2 sp.rows && sp.rows > 1 in
    List.concat
      [
        (if square then [ of_piece sp (L.Gallery.antidiag sp.rows) ] else []);
        (if square then [ of_piece sp (L.Gallery.cyclic_diag sp.rows) ] else []);
        [ of_piece sp (L.Gallery.reverse [ sp.rows; sp.cols ]) ];
        (if pow2 then
           let bits = ref 0 and m = ref sp.rows in
           while !m > 1 do
             incr bits;
             m := !m / 2
           done;
           [
             of_piece sp (L.Gallery.morton ~d:2 ~bits:!bits);
             of_piece sp (L.Gallery.hilbert ~bits:!bits);
           ]
         else []);
      ]

  let composed sp =
    if (not sp.composed) || (not (is_pow2 sp.cols)) || sp.cols = 1 then []
    else begin
      let module A = L.Algebra in
      let get what = function
        | Ok v -> v
        | Error e ->
          invalid_arg
            (Format.asprintf "Space.composed (%s): %a" what A.pp_error e)
      in
      let a = A.row [ sp.rows; sp.cols ] in
      let tile_piece tile =
        get "divide" (Result.bind (A.logical_divide a tile) A.to_piece)
      in
      let tiles =
        A.make ~shape:[ sp.cols ] ~stride:[ 1 ]
        :: List.filter_map
             (fun ri ->
               if ri > 1 && sp.rows mod ri = 0 then
                 Some (A.make ~shape:[ ri ] ~stride:[ sp.cols ])
               else None)
             [ 2; 4 ]
      in
      let masks =
        List.filter
          (fun m -> m > 0)
          (List.sort_uniq compare
             [ sp.cols - 1; (sp.cols - 1) / 2; (sp.cols - 1) / 4 ])
      in
      List.concat_map
        (fun tile ->
          let tp = tile_piece tile in

          of_piece sp tp
          :: List.concat_map
               (fun mask ->
                 List.map
                   (fun shift ->
                     let swz =
                       L.Gallery.xor_swizzle_masked ~rows:sp.rows ~cols:sp.cols
                         ~mask ~shift
                     in
                     of_piece sp (get "compose" (A.compose_pieces swz tp)))
                   [ 0; 1 ])
               masks)
        tiles
    end

  let divisor_pairs n =
    let rec go d acc =
      if d > n / 2 then List.rev acc
      else go (d + 1) (if n mod d = 0 then (d, n / d) :: acc else acc)
    in
    go 2 []

  let tilings sp =
    let rows_splits = divisor_pairs sp.rows and cols_splits = divisor_pairs sp.cols in
    let sigmas = L.Sigma.all 2 in
    List.concat_map
      (fun (ro, ri) ->
        List.concat_map
          (fun (co, ci) ->
            List.concat_map
              (fun so ->
                List.map
                  (fun si ->
                    view2 sp
                      (L.Sugar.tile_order_by
                         [
                           L.Piece.reg ~dims:[ ro; co ] ~sigma:so;
                           L.Piece.reg ~dims:[ ri; ci ] ~sigma:si;
                         ]))
                  sigmas)
              sigmas)
          cols_splits)
      rows_splits

  let num_bits n = if n <= 1 then 0 else log2 (n - 1) + 1

  let swizzle_family sp =
    if (not (is_pow2 sp.cols)) || sp.cols = 1 then []
    else begin
      let shifts = max 1 (num_bits sp.rows) in
      List.concat_map
        (fun shift -> List.init sp.cols (fun mask -> (mask, shift)))
        (List.init shifts Fun.id)
    end

  let sampled_swizzles sp =
    if (not (is_pow2 sp.cols)) || sp.cols = 1 then []
    else begin
      let rec masks m = if m < 1 then [] else m :: masks (m / 2) in
      List.concat_map
        (fun mask -> List.map (fun shift -> (mask, shift)) [ 0; 1; 2 ])
        (masks (sp.cols - 1))
    end

  let printed g = (g, L.Group_by.to_string g)

  let swizzle_stages sp =
    let stages = Hashtbl.create 256 in
    fun pair ->
      match Hashtbl.find_opt stages pair with
      | Some st -> st
      | None ->
        let mask, shift = pair in
        let o =
          L.Order_by.make
            [
              L.Gallery.xor_swizzle_masked ~rows:sp.rows ~cols:sp.cols ~mask
                ~shift;
            ]
        in
        let st = (o, L.Order_by.to_string o ^ ".") in
        Hashtbl.add stages pair st;
        st

  let swizzled stage pairs (base, text) =
    Seq.map
      (fun pair ->
        let o, prefix = stage pair in
        (L.Group_by.prepend o base, prefix ^ text))
      (List.to_seq pairs)

  let sampled sp stage =
    let l = List.to_seq in
    let pairs = shuffle sp ~tag:"swizzles" (sampled_swizzles sp) in
    let swizzles ((g, _) as b) =
      if has_gen g then Seq.empty else swizzled stage pairs b
    in
    let family tag xs = List.map printed (shuffle sp ~tag xs) in
    let sigmas = family "roots" (sigma_roots sp) in
    let gallery = family "gallery" (gallery_roots sp) in
    let composed = family "composed" (composed sp) in
    let tilings = l (family "tilings" (tilings sp)) in
    Seq.concat
      (l
         [
           l (sigmas @ gallery @ composed);
           Seq.concat_map (fun b -> Seq.append (swizzles b) tilings) (l sigmas);
           Seq.concat_map swizzles (l composed);
           Seq.concat_map swizzles tilings;
         ])

  let rec factorizations n k =
    if k <= 1 then if n > 1 then [ [ n ] ] else []
    else
      List.concat_map
        (fun (d, rest) ->
          List.map (fun f -> d :: f) (factorizations rest (k - 1)))
        (divisor_pairs n)

  let deep_tilings sp =
    let sigmas = L.Sigma.all 2 in
    List.concat_map
      (fun rf ->
        List.concat_map
          (fun cf ->
            let levels = List.combine rf cf in
            List.concat_map
              (fun s1 ->
                List.concat_map
                  (fun s2 ->
                    List.map
                      (fun s3 ->
                        view2 sp
                          (L.Sugar.tile_order_by
                             (List.map2
                                (fun (r, c) s -> L.Piece.reg ~dims:[ r; c ] ~sigma:s)
                                levels [ s1; s2; s3 ])))
                      sigmas)
                  sigmas)
              sigmas)
          (factorizations sp.cols 3))
      (factorizations sp.rows 3)

  let vector_tilings sp =
    let sigmas = L.Sigma.all 2 in
    let id2 = L.Sigma.identity 2 in
    let widths n = List.map fst (divisor_pairs n) in
    List.concat_map
      (fun v ->
        List.map
          (fun so ->
            view2 sp
              (L.Sugar.tile_order_by
                 [
                   L.Piece.reg ~dims:[ sp.rows; sp.cols / v ] ~sigma:so;
                   L.Piece.reg ~dims:[ 1; v ] ~sigma:id2;
                 ]))
          sigmas)
      (widths sp.cols)
    @ List.concat_map
        (fun w ->
          List.map
            (fun so ->
              view2 sp
                (L.Sugar.tile_order_by
                   [
                     L.Piece.reg ~dims:[ sp.rows / w; sp.cols ] ~sigma:so;
                     L.Piece.reg ~dims:[ w; 1 ] ~sigma:id2;
                   ]))
            sigmas)
        (widths sp.rows)

  let scale_stream sp stage =
    if not sp.scale then Seq.empty
    else begin
      let bases =
        shuffle sp ~tag:"scale-bases"
          (sigma_roots sp @ tilings sp @ deep_tilings sp @ vector_tilings sp)
      in
      let pairs =
        shuffle sp ~tag:"scale-grid"
          (List.filter (fun (mask, _) -> mask > 0) (swizzle_family sp))
      in
      Seq.concat_map
        (fun base ->
          let b = printed base in
          Seq.cons b (swizzled stage pairs b))
        (List.to_seq bases)
    end

  let candidates sp () =
    let stage = swizzle_stages sp in
    let seen = Hashtbl.create 1024 in
    let rec go s () =
      match s () with
      | Seq.Nil -> Seq.Nil
      | Seq.Cons (((_, text) as c), tl) ->
        let d = Digest.string text in
        if Hashtbl.mem seen d then go tl ()
        else begin
          Hashtbl.add seen d ();
          Seq.Cons (c, go tl)
        end
    in
    go (Seq.append (sampled sp stage) (scale_stream sp stage)) ()
end

let space_candidates ?(seed = 0) ?(composed = false) ?(scale = false) ~rows
    ~cols () =
  Legacy_space.candidates { Legacy_space.rows; cols; seed; composed; scale }

(* ---- Per-point conformance check ----------------------------------------- *)

(* [Expr.evaluator] as it was before columns: the slot program evaluated
   at one point under a string environment, each slot computed on first
   demand in the tree walk's order, [Select] taking one branch. *)
type eval_slot =
  | S_const of int
  | S_var of string
  | S_add of int array
  | S_mul of int array
  | S_div of int * int
  | S_mod of int * int
  | S_select of int * int * int
  | S_le of int * int
  | S_lt of int * int
  | S_eq of int * int
  | S_isqrt of int

let evaluator e =
  let ids = E.Tbl.create 64 in
  let slots = ref [] and count = ref 0 in
  let rec number (e : E.t) =
    match E.Tbl.find_opt ids e with
    | Some i -> i
    | None ->
      let pair a b = (number a, number b) in
      let s =
        match e.node with
        | Const n -> S_const n
        | Var v -> S_var v
        | Add xs -> S_add (Array.of_list (List.map number xs))
        | Mul xs -> S_mul (Array.of_list (List.map number xs))
        | Div (a, b) -> let a, b = pair a b in S_div (a, b)
        | Mod (a, b) -> let a, b = pair a b in S_mod (a, b)
        | Select (c, a, b) ->
          let c = number c in
          let a, b = pair a b in
          S_select (c, a, b)
        | Le (a, b) -> let a, b = pair a b in S_le (a, b)
        | Lt (a, b) -> let a, b = pair a b in S_lt (a, b)
        | Eq (a, b) -> let a, b = pair a b in S_eq (a, b)
        | Isqrt a -> S_isqrt (number a)
      in
      let i = !count in
      incr count;
      slots := s :: !slots;
      E.Tbl.add ids e i;
      i
  in
  let root = number e in
  let prog = Array.of_list (List.rev !slots) in
  fun ~env ->
    let n = Array.length prog in
    let value = Array.make n 0 and known = Bytes.make n '\000' in
    let rec get i =
      if Bytes.get known i <> '\000' then value.(i)
      else begin
        let v = compute prog.(i) in
        value.(i) <- v;
        Bytes.set known i '\001';
        v
      end
    and compute = function
      | S_const n -> n
      | S_var v -> env v
      | S_add xs -> Array.fold_left (fun acc x -> acc + get x) 0 xs
      | S_mul xs -> Array.fold_left (fun acc x -> acc * get x) 1 xs
      | S_div (a, b) ->
        let d = get b in
        if d = 0 then raise Division_by_zero;
        Lego_layout.Domain.floor_div (get a) d
      | S_mod (a, b) ->
        let d = get b in
        if d = 0 then raise Division_by_zero;
        Lego_layout.Domain.floor_rem (get a) d
      | S_select (c, a, b) -> if get c <> 0 then get a else get b
      | S_le (a, b) -> if get a <= get b then 1 else 0
      | S_lt (a, b) -> if get a < get b then 1 else 0
      | S_eq (a, b) -> if get a = get b then 1 else 0
      | S_isqrt a -> Lego_layout.Domain.int_isqrt (get a)
    in
    get root

(* [Conform.check_layout] as it was before blocks of lanes: every point
   through every leg in turn, each leg building its index lists and
   string environments at that point. *)
module Conform = Lego_conform.Conform
module Cexpr = Lego_conform.Cexpr
module Cp = Lego_codegen.C_printer
module Mg = Lego_codegen.Mlir_gen
module Mp = Lego_mlirsim.Mparser
module S = Lego_symbolic

exception Found of Conform.mismatch

let found stage fmt =
  Printf.ksprintf (fun detail -> raise (Found { stage; detail })) fmt

let pp_ints l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

let check_layout ?(max_points = 2048) ?(sample_seed = 0) g :
    Conform.outcome =
  if max_points < 1 then invalid_arg "Conform.check_layout: max_points < 1";
  let n = L.Group_by.numel g in
  let dims = L.Group_by.dims g in
  let names = List.mapi (fun k _ -> Printf.sprintf "i%d" k) dims in
  let points = ref 0 in
  let c_active = ref false in
  let f2_active = ref false in
  let mismatch =
    try
      let env_a = S.Sym.ranges_of g in
      let apply_sym = S.Sym.apply g in
      let inv_sym = S.Sym.inv g in
      let env_p = S.Sym.inv_ranges g in
      let eval_apply = evaluator apply_sym in
      let eval_inv = List.map evaluator inv_sym in
      let c_guard_ok =
        Cp.guard_nonneg ~env:env_a apply_sym = Ok ()
        && List.for_all (fun e -> Cp.guard_nonneg ~env:env_p e = Ok ()) inv_sym
      in
      let reparse e =
        let src = Cp.expr e in
        match Cexpr.parse src with
        | Ok t -> t
        | Error msg -> found "c-reparse" "cannot reparse %S: %s" src msg
      in
      let c_apply, c_inv =
        if c_guard_ok then (Some (reparse apply_sym), List.map reparse inv_sym)
        else (None, [])
      in
      c_active := c_guard_ok;
      let m_apply =
        Mp.parse_module
          (Mg.index_func ~name:"apply" ~params:names [ apply_sym ])
      in
      let m_inv =
        Mp.parse_module (Mg.index_func ~name:"inv" ~params:[ "p" ] inv_sym)
      in
      let f2 =
        match Lego_f2.Linear.of_layout g with
        | None -> None
        | Some lin -> (
          match Lego_f2.Linear.inverse lin with
          | Some lin_inv -> Some (lin, lin_inv)
          | None ->
            found "f2-rank"
              "layout is bijective but its F2 matrix is singular (rank < %d)"
              (Lego_f2.Linear.bits lin))
      in
      f2_active := f2 <> None;
      let seen = if n <= max_points then Some (Array.make n false) else None in
      let check_point idx =
        incr points;
        let p = L.Group_by.apply_ints g idx in
        if p < 0 || p >= n then
          found "interp-bounds" "apply %s = %d, outside [0, %d)" (pp_ints idx) p
            n;
        (match seen with
        | Some hit ->
          if hit.(p) then
            found "interp-injective" "offset %d produced twice (again at %s)"
              p (pp_ints idx);
          hit.(p) <- true
        | None -> ());
        let back = L.Group_by.inv_ints g p in
        if back <> idx then
          found "interp-roundtrip" "inv (apply %s) = %s" (pp_ints idx)
            (pp_ints back);
        let bindings = List.combine names idx in
        let lookup v = List.assoc v bindings in
        let lookup_p v =
          if v = "p" then p else failwith ("unbound variable " ^ v)
        in
        let sp = eval_apply ~env:lookup in
        if sp <> p then
          found "symbolic-apply" "at %s: interpreter %d, symbolic %d"
            (pp_ints idx) p sp;
        List.iteri
          (fun k (eval, want) ->
            let got = eval ~env:lookup_p in
            if got <> want then
              found "symbolic-inv"
                "component %d at p = %d: interpreter %d, symbolic %d" k p want
                got)
          (List.combine eval_inv idx);
        (match c_apply with
        | Some ca ->
          let cp = Cexpr.eval ~env:lookup ca in
          if cp <> p then
            found "c-apply" "at %s: interpreter %d, C %d" (pp_ints idx) p
              cp;
          List.iteri
            (fun k (e, want) ->
              let got = Cexpr.eval ~env:lookup_p e in
              if got <> want then
                found "c-inv" "component %d at p = %d: interpreter %d, C %d" k
                  p want got)
            (List.combine c_inv idx)
        | None -> ());
        let args = List.map (fun i -> Mi.Int i) idx in
        (match Mi.run_func m_apply "apply" args with
        | [ mp ] when mp = p -> ()
        | [ mp ] ->
          found "mlir-apply" "at %s: interpreter %d, MLIR %d" (pp_ints idx) p
            mp
        | rs ->
          found "mlir-apply" "expected one result, got %d" (List.length rs));
        let mback = Mi.run_func m_inv "inv" [ Mi.Int p ] in
        if mback <> idx then
          found "mlir-inv" "at p = %d: interpreter %s, MLIR %s" p (pp_ints idx)
            (pp_ints mback);
        match f2 with
        | None -> ()
        | Some (lin, lin_inv) ->
          let flat = L.Shape.flatten_ints dims idx in
          let fp = Lego_f2.Linear.apply lin flat in
          if fp <> p then
            found "f2-apply" "at %s (flat %d): interpreter %d, F2 %d"
              (pp_ints idx) flat p fp;
          let fback = Lego_f2.Linear.apply lin_inv p in
          if fback <> flat then
            found "f2-inv" "at p = %d: flat index %d, F2 inverse %d" p flat
              fback
      in
      (match seen with
      | Some _ -> Seq.iter check_point (L.Shape.indices dims)
      | None ->
        let rng = Random.State.make [| 0x5A11; sample_seed |] in
        for _ = 1 to max_points do
          check_point (List.map (fun e -> Random.State.int rng e) dims)
        done);
      None
    with
    | Found m -> Some m
    | exn -> Some { stage = "exception"; detail = Printexc.to_string exn }
  in
  { points = !points; c_checked = !c_active; f2_checked = !f2_active; mismatch }
