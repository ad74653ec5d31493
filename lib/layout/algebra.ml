(* CuTe-style layout algebra over flat strided layouts.

   Conventions.  [shape]/[stride] are stored in repo order — first mode
   outermost, last mode fastest, matching {!Shape.flatten} — but every
   algorithm below works on the reversed, fastest-first list of
   [(extent, stride)] pairs ([ff]): the CuTe formulations (stride
   peeling, complement chains) are naturally stated innermost-out.

   Side conditions are closed facts about the integers of the operands
   (divisibility, bounds, equalities), so each is checked directly; the
   first one that fails aborts the operator with its positioned [error].
   The checks are exact because no value wraps: [make] admits a layout
   only if every mode's extent * stride and its cosize fit in an int,
   and every value an operator forms below is bounded by one of those
   (see DESIGN.md §13). *)

type t = { shape : int list; stride : int list }

let shape t = t.shape
let stride t = t.stride

let size t = Shape.numel t.shape

let cosize t =
  List.fold_left2 (fun acc e d -> acc + ((e - 1) * d)) 1 t.shape t.stride

let pp_ints ppf l =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Format.pp_print_int ppf l

let pp ppf t = Format.fprintf ppf "(%a):(%a)" pp_ints t.shape pp_ints t.stride
let to_string t = Format.asprintf "%a" pp t

let make ~shape ~stride =
  if shape = [] then invalid_arg "Algebra.make: empty shape";
  if List.length shape <> List.length stride then
    invalid_arg "Algebra.make: shape/stride rank mismatch";
  Shape.validate shape;
  List.iter
    (fun s -> if s < 0 then invalid_arg "Algebra.make: negative stride")
    stride;
  (* Each mode's extent * stride and each partial cosize are checked by
     division or subtraction before they are formed, so an overflow
     cannot wrap past the check. *)
  let rec fits cosize = function
    | [] -> true
    | (e, d) :: rest ->
        (d = 0 || e <= max_int / d)
        &&
        let span = (e - 1) * d in
        cosize <= max_int - span && fits (cosize + span) rest
  in
  let t = { shape; stride } in
  if not (fits 1 (List.combine shape stride)) then
    invalid_arg
      (Printf.sprintf "Algebra.make: the image of %s exceeds the int range"
         (to_string t));
  t

let trivial = { shape = [ 1 ]; stride = [ 0 ] }
let id n = if n = 1 then trivial else make ~shape:[ n ] ~stride:[ 1 ]

let row_major_strides shape =
  (* Row-major: stride of mode k is the product of the extents after it. *)
  let _, strides =
    List.fold_left
      (fun (acc, out) e -> (acc * e, acc :: out))
      (1, []) (List.rev shape)
  in
  strides

let row shape = make ~shape ~stride:(row_major_strides shape)

let col shape =
  (* Column-major: stride of mode k is the product of the extents before
     it (the first mode is fastest). *)
  let _, rev_strides =
    List.fold_left (fun (acc, out) e -> (acc * e, acc :: out)) (1, []) shape
  in
  make ~shape ~stride:(List.rev rev_strides)

let concat a b = make ~shape:(a.shape @ b.shape) ~stride:(a.stride @ b.stride)

(* Fastest-first [(extent, stride)] modes and back. *)
let ff t = List.rev (List.combine t.shape t.stride)

let of_ff = function
  | [] -> trivial
  | modes ->
      let repo = List.rev modes in
      make ~shape:(List.map fst repo) ~stride:(List.map snd repo)

let coalesce t =
  let merged =
    List.fold_left
      (fun acc (e, d) ->
        if e = 1 then acc
        else
          match acc with
          | (e0, d0) :: rest when d = d0 * e0 -> ((e0 * e, d0) :: rest)
          | _ -> (e, d) :: acc)
      [] (ff t)
  in
  (* [merged] was consed fastest-first, so it already sits in repo order. *)
  match merged with
  | [] -> trivial
  | repo -> make ~shape:(List.map fst repo) ~stride:(List.map snd repo)

let apply_int t i =
  List.fold_left2
    (fun acc digit s -> acc + (digit * s))
    0 (Shape.unflatten_ints t.shape i) t.stride

let equal a b = a.shape = b.shape && a.stride = b.stride

let equivalent a b =
  size a = size b
  &&
  let n = size a in
  let rec go i = i >= n || (apply_int a i = apply_int b i && go (i + 1)) in
  go 0

let is_bijection t =
  let modes = List.filter (fun (e, _) -> e > 1) (List.combine t.shape t.stride) in
  let sorted = List.sort (fun (_, d1) (_, d2) -> compare d1 d2) modes in
  let rec chain cur = function
    | [] -> cur = size t
    | (e, d) :: rest -> d = cur && chain (cur * e) rest
  in
  chain 1 sorted

(* ------------------------------------------------------------------ *)
(* Side conditions                                                     *)
(* ------------------------------------------------------------------ *)

type error = { op : string; cond : string; detail : string }

let pp_error ppf { op; cond; detail } =
  Format.fprintf ppf "%s: unproven side condition %S: %s" op cond detail

exception Unproven of error

(* [fail op cond fmt ...] aborts the operator with the formatted error;
   callers test a condition first, so the detail is formatted only when
   it fails. *)
let fail op cond fmt =
  Printf.ksprintf (fun detail -> raise (Unproven { op; cond; detail })) fmt

let divides d v = d <> 0 && v mod d = 0
let run f = try Ok (f ()) with Unproven e -> Error e
let get = function Ok v -> v | Error e -> raise (Unproven e)

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let compose a b =
  run @@ fun () ->
  (* Strides are non-negative, so [b]'s image is [0, cosize b). *)
  if cosize b > size a then
    fail "o" "size" "image of %s must lie within the domain [0,%d) of %s"
      (to_string b) (size a) (to_string a);
  let a_ff = ff a in
  (* [peel c modes] divides the layout [modes] (fastest-first) by the
     offset multiplier [c]: consumed extents must divide [c] exactly so
     that multiples of [c] land on whole digits of [a]. *)
  let rec peel c modes =
    if c = 1 then modes
    else
      match modes with
      | [] -> []
      | (s, d) :: rest ->
          if c >= s then (
            if not (divides s c) then
              fail "o" "left-divisibility"
                "mode extent %d of %s must divide the stride %d it is peeled \
                 by"
                s (to_string a) c;
            peel (c / s) rest)
          else (
            if not (divides c s) then
              fail "o" "left-divisibility"
                "stride %d must divide the mode extent %d of %s it splits" c s
                (to_string a);
            (s / c, d * c) :: rest)
  in
  (* [take r modes] keeps the first [r] elements of the peeled layout:
     fully consumed modes must have extents dividing what remains. *)
  let rec take r modes =
    if r = 1 then []
    else
      match modes with
      | [] ->
          fail "o" "size" "extent %d walks past the end of the domain of %s" r
            (to_string a)
      | (s, d) :: rest ->
          if r >= s then (
            if not (divides s r) then
              fail "o" "left-divisibility"
                "mode extent %d of %s must divide the remaining extent %d" s
                (to_string a) r;
            (s, d) :: take (r / s) rest)
          else [ (r, d) ]
  in
  let contribution (e, d) =
    if e = 1 then []
    else if d = 0 then [ (e, 0) ]
    else take e (peel d a_ff)
  in
  of_ff (List.concat_map contribution (ff b))

(* ------------------------------------------------------------------ *)
(* Complement                                                          *)
(* ------------------------------------------------------------------ *)

let complement a m =
  run @@ fun () ->
  if m < 1 then
    fail "complement" "coverage" "codomain size %d must be positive" m;
  let modes = List.filter (fun (e, _) -> e > 1) (ff a) in
  List.iter
    (fun (_, d) ->
      if d < 1 then
        fail "complement" "injectivity" "stride %d of %s is not positive" d
          (to_string a))
    modes;
  let sorted = List.sort (fun (_, d1) (_, d2) -> compare d1 d2) modes in
  let cur, acc =
    List.fold_left
      (fun (cur, acc) (e, d) ->
        if not (divides cur d) then
          fail "complement" "disjointness"
            "accumulated block size %d must divide the next stride %d of %s"
            cur d (to_string a);
        let acc = if d / cur > 1 then (d / cur, cur) :: acc else acc in
        (d * e, acc))
      (1, []) sorted
  in
  if cosize a > m then
    fail "complement" "coverage" "image of %s must lie within [0,%d)"
      (to_string a) m;
  if not (divides cur m) then
    fail "complement" "coverage"
      "final block size %d of %s must divide the codomain size %d" cur
      (to_string a) m;
  let acc = if m / cur > 1 then (m / cur, cur) :: acc else acc in
  (* [acc] was consed in ascending-stride order, so its head is the
     largest stride: it is already the repo (outermost-first) order. *)
  match acc with
  | [] -> trivial
  | repo -> make ~shape:(List.map fst repo) ~stride:(List.map snd repo)

let tiler b m = Result.map (fun c -> concat c b) (complement b m)

let logical_divide a b =
  run @@ fun () ->
  if not (divides (size b) (size a)) then
    fail "divide" "size" "tile size %d of %s must divide the size %d of %s"
      (size b) (to_string b) (size a) (to_string a);
  let t = get (tiler b (size a)) in
  get (compose a t)

let logical_product a b =
  run @@ fun () ->
  (* The codomain is the one value an operator forms from two layouts'
     sizes, so it is checked by division before it is formed. *)
  if cosize b > max_int / size a then
    fail "product" "coverage"
      "codomain %d * %d (the size of %s times the cosize of %s) exceeds the \
       int range"
      (size a) (cosize b) (to_string a) (to_string b);
  (* A stride-0 mode of [b] makes its size exceed its cosize, so the
     product's element count is checked on its own. *)
  if size b > max_int / size a then
    fail "product" "size"
      "element count %d * %d (the sizes of %s and %s) exceeds the int range"
      (size a) (size b) (to_string a) (to_string b);
  let c = get (complement a (size a * cosize b)) in
  let cb = get (compose c b) in
  concat cb a

(* ------------------------------------------------------------------ *)
(* Inverse and piece bridging                                          *)
(* ------------------------------------------------------------------ *)

let inverse t =
  if not (is_bijection t) then None
  else
    let rs = row_major_strides t.shape in
    let modes =
      List.map2 (fun (e, d) r -> (e, d, r)) (List.combine t.shape t.stride) rs
    in
    let nontrivial = List.filter (fun (e, _, _) -> e > 1) modes in
    let sorted =
      List.sort (fun (_, d1, _) (_, d2, _) -> compare d1 d2) nontrivial
    in
    (* The mode with stride [d_i] reads digit [i] of the argument (the
       chain radix, fastest first) and writes it at the row-major
       position the mode occupied in [t]'s logical space. *)
    let inv_ff = List.map (fun (e, _, r) -> (e, r)) sorted in
    Some (of_ff inv_ff)

let of_piece = function
  | Piece.Gen _ -> None
  | Piece.Reg { dims; sigma } ->
      let n = List.length dims in
      if n = 0 then Some trivial
      else
        let pdims = Array.of_list (Sigma.permute sigma dims) in
        let pstrides = Array.make n 1 in
        for k = n - 2 downto 0 do
          pstrides.(k) <- pstrides.(k + 1) * pdims.(k + 1)
        done;
        let lstr = Array.make n 0 in
        for k = 0 to n - 1 do
          lstr.(Sigma.apply sigma k) <- pstrides.(k)
        done;
        Some (make ~shape:dims ~stride:(Array.to_list lstr))

let to_piece t =
  run @@ fun () ->
  let modes =
    List.mapi (fun i (e, d) -> (i, e, d)) (List.combine t.shape t.stride)
  in
  let nontrivial = List.filter (fun (_, e, _) -> e > 1) modes in
  let sorted =
    List.sort (fun (_, _, d1) (_, _, d2) -> compare d1 d2) nontrivial
  in
  let cur =
    List.fold_left
      (fun cur (_, e, d) ->
        if d <> cur then
          fail "to_piece" "bijectivity"
            "stride %d of %s must equal the accumulated block size %d" d
            (to_string t) cur;
        cur * e)
      1 sorted
  in
  if cur <> size t then
    fail "to_piece" "bijectivity" "strides of %s cover %d of %d elements"
      (to_string t) cur (size t);
  (* Physical order: strides descending (largest outermost), original
     position as the deterministic tie-break; extent-1 modes may land
     anywhere without changing the denoted function. *)
  let order =
    List.sort
      (fun (i1, _, d1) (i2, _, d2) ->
        if d1 <> d2 then compare d2 d1 else compare i1 i2)
      modes
  in
  let sigma = Sigma.of_list (List.map (fun (i, _, _) -> i) order) in
  Piece.reg ~dims:t.shape ~sigma

let compose_pieces a b =
  run @@ fun () ->
  let na = Piece.numel a and nb = Piece.numel b in
  if nb <> na then
    fail "o" "size" "piece element counts must agree (%d vs %d)" na nb;
  (* A failed strided composition is not an error: it falls back to the
     composite below. *)
  let strided =
    match (of_piece a, of_piece b) with
    | Some la, Some lb ->
        Result.to_option (Result.bind (compose la lb) to_piece)
    | _ -> None
  in
  match strided with
  | Some p -> p
  | None ->
      let cname = Format.asprintf "(%a o %a)" Piece.pp a Piece.pp b in
      let dims_a = Piece.dims a in
      let bij =
        {
          Piece.gb_apply =
            (fun (type x) (module D : Domain.S with type t = x)
                 (idx : x list) : x ->
              Piece.apply (module D) a
                (Shape.unflatten (module D) dims_a (Piece.apply (module D) b idx)));
          gb_inv =
            (fun (type x) (module D : Domain.S with type t = x) (flat : x) :
                 x list ->
              Piece.inv (module D) b
                (Shape.flatten (module D) dims_a (Piece.inv (module D) a flat)));
        }
      in
      Piece.gen ~name:cname ~dims:(Piece.dims b) bij
